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

// routeAuto maps a topology profile to the enumeration algorithm,
// following the crossover data of the paper's evaluation (§4):
//
//   - Any query with hyperedges goes to DPhyp: Figures 5 and 6 show it
//     lowest on every hyperedge workload, often by orders of magnitude,
//     because it is the only enumerator that never generates a
//     connectivity-failing pair.
//   - Stars go to DPhyp (Fig. 7: DPhyp ≪ DPsub < DPsize, with the gap
//     growing exponentially in the number of relations).
//   - Chains go to DPsize: on chains the size-paired enumeration wastes
//     almost nothing (§4.2 shows all three DP variants within small
//     factors there) and its tight loops have the smallest constant.
//   - Cycles go to DPccp, the simple-graph specialization of the
//     csg-cmp-pair enumeration — exact and allocation-light on sparse
//     simple graphs.
//   - Cliques go to TopDown: on a clique every subset is connected, so
//     the failing connectivity tests that sink DPsize/DPsub vanish and
//     the memoizing partition search enumerates exactly the csg-cmp
//     pairs top-down.
//   - Everything else (grids, irregular graphs) goes to DPhyp, the
//     paper's overall winner.
//
// Queries whose class/size combination is beyond the exact cutoffs
// degrade to Greedy up front rather than tripping a budget mid-flight.
// Every routed exact solver explores the same bushy cross-product-free
// space, so routing never changes the cost of the returned plan — only
// the time to find it.
//
// workers is the effective parallelism of the call. It only matters in
// one place: cliques at or above the parallel crossover route to the
// level-parallel DPsub instead of TopDown, which has no parallel mode.
// This is a measured choice against serial TopDown: on a clique every
// subset is connected, so both solvers walk the same Θ(3ⁿ) partition
// space, and at 2 workers on 2 CPUs parallel DPsub takes 0.59–0.78× of
// serial TopDown's time on clique10–12. Below the crossover (and at
// workers == 1) the serial routing is unchanged, so small queries never
// pay fork/join overhead.
func routeAuto(p shape.Profile, workers int) Algorithm {
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
	if p.HyperEdges > 0 {
		return DPhyp
	}
	switch p.Class {
	case shape.Chain:
		return DPsize
	case shape.Cycle:
		return DPccp
	case shape.Clique:
		if workers > 1 && p.Rels >= ParallelMinRels {
			return DPsub
		}
		return TopDown
	default: // Star, Grid, Mixed
		return DPhyp
	}
}
