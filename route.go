package repro

import "repro/internal/shape"

// Topology-dependent limits beyond which exact enumeration is routed to
// Greedy (GOO) instead. The numbers come from the growth of the
// csg-cmp-pair counts measured in §4: cliques emit Θ(3ⁿ) pairs and
// stars Θ(n·2ⁿ), so both leave the interactive regime in the mid-teens,
// while chains and cycles emit only polynomially many pairs and stay
// exact much longer. Unrecognized (mixed) and grid shapes sit in
// between and get a conservative cutoff.
const (
	autoMaxCliqueRels = 14
	autoMaxStarRels   = 18
	autoMaxDenseRels  = 16 // grid and mixed shapes
	autoMaxSparseRels = 24 // chain and cycle
)

// autoMaxGreedyRels is the ceiling of the plain Greedy degradation: the
// historical single-machine-word limit (§2.3). Up to here oversize
// queries keep their pre-multi-word behavior (GOO's O(n³) scan is still
// interactive and its plans are adequate at this scale); beyond it the
// IterDP simplification tier takes over — its greedy clustering plus
// exact subproblems beat pure GOO on plan quality, and its near-linear
// compression keeps 100–1000-relation queries inside an interactive
// budget where GOO's cubic scan would not.
const autoMaxGreedyRels = 64

// routeAuto maps a topology profile to the enumeration algorithm.
// Every exact solver prices the same csg-cmp-pairs through the same
// plan builder and the same order-independent tie-break, so routing
// never changes the plan, only the time to find it. The ratios below
// were measured on 2 CPUs (Planner, cache off, 15 interleaved pairs
// per cell; medians):
//
//   - Any query with hyperedges goes to DPhyp, the only enumerator that
//     handles them without generating connectivity-failing pairs
//     (Figures 5 and 6).
//   - A traced call (traced, from WithTrace) goes to DPhyp, the one
//     solver that records the Fig. 3 steps. The plan stays the same,
//     and a traced call already bypasses the cache.
//   - Every other graph goes to DPccp. On a graph without hyperedges it
//     emits the same pairs as DPhyp (§4.4) and needs no DP-table
//     membership test: serial DPccp takes 0.80–0.94× of DPhyp's time
//     on stars, grids, cycles and chains, 0.14–0.48× of DPsize's on
//     chains of 8–24, and 0.94–0.98× of TopDown's on clique10–14.
//
// Every route enumerates on one goroutine: no parallel route beat
// serial DPccp on a clique a benchmark workload plans (see Concurrency
// in the package documentation).
//
// Queries whose class/size combination is beyond the exact cutoffs
// degrade to Greedy up front rather than tripping a budget mid-flight.
func routeAuto(p shape.Profile, traced bool) Algorithm {
	limit := autoMaxDenseRels
	switch p.Class {
	case shape.Clique:
		limit = autoMaxCliqueRels
	case shape.Star:
		limit = autoMaxStarRels
	case shape.Chain, shape.Cycle:
		limit = autoMaxSparseRels
	}
	if p.Rels > autoMaxGreedyRels {
		return IterDP
	}
	if p.Rels > limit {
		return Greedy
	}
	if p.HyperEdges > 0 || traced {
		return DPhyp
	}
	return DPccp
}
