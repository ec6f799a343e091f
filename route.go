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
// queries keep their pre-multi-word behavior (GOO's about n² rankings,
// each an incidence-row walk, stay interactive and its plans are
// adequate at this scale); beyond it the IterDP simplification tier
// takes over — its greedy clustering plus exact subproblems beat pure
// GOO on plan quality, and its near-linear compression keeps
// 100–1000-relation queries inside an interactive budget where GOO's
// rankings and its scan over every pair at each merge would not.
const autoMaxGreedyRels = 64

// routeAuto maps a topology profile to the enumeration algorithm:
// IterDP above autoMaxGreedyRels relations, Greedy above the class's
// exact cutoff, and DPhyp otherwise. DPhyp is the one exact route. It
// handles hyperedges without generating connectivity-failing pairs
// (Figures 5 and 6), it alone records the Fig. 3 steps WithTrace asks
// for, and on a graph without hyperedges it emits the same pairs as
// DPccp (§4.4) and computes N(S, X) as DPccp does, from the carried
// simple-neighbour union alone. Every exact solver prices the same
// csg-cmp-pairs through the same plan builder and the same
// order-independent tie-break, so routing never changes the plan, only
// the time to find it.
//
// DPhyp ÷ DPccp time, measured on 2 CPUs (one Planner per solver,
// cache off, DefaultConfig; per cell 5 warm-up plans per side, then 20
// blocks of at least 100 ms per side, 400 ms for star14, clique10 and
// grid4x4, of alternating single plans whose first side flips on every
// plan; median block ratio, two runs), with both solvers on the
// word-sized memo and pricing kernel: chains of 4–20 1.006–1.018,
// cycle12 and cycle20 1.006–1.012, stars of 6–14 1.012–1.037, clique8
// and clique10 1.011–1.017, grid3x4 and grid4x4 1.006–1.032. DPhyp
// stays the route for the reasons above at that cost per plan.
//
// Every route enumerates on one goroutine: no parallel route beat the
// serial clique route on a clique a benchmark workload plans (see
// Concurrency in the package documentation).
//
// Queries whose class/size combination is beyond the exact cutoffs
// degrade to Greedy up front rather than tripping a budget mid-flight.
func routeAuto(p shape.Profile) Algorithm {
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
	return DPhyp
}
