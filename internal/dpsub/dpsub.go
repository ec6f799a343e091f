// Package dpsub implements the subset-driven dynamic programming
// enumerator (§4.1): for every relation set S in ascending integer order
// it generates all subsets S1 ⊂ S with the Vance–Maier procedure, joins
// the best plans for S1 and S2 = S ∖ S1, and tests that (S1,S2) is a
// csg-cmp-pair. The subset tests fail massively on sparse query graphs —
// DPsub touches all 2^n subsets and, for each, all 2^|S| partitions
// (Θ(3^n) total) regardless of how few of them are connected — which is
// why the paper's evaluation shows it losing to DPhyp everywhere and to
// DPsize on large cycles, while winning over DPsize on stars.
//
// As with DPsize, hypergraph support needs no structural change: only
// the connectivity test must understand hyperedges (§4.1).
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo),
// and subset generation uses the bitset.SubsetsOf iterator.
package dpsub

import (
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// Solve runs DPsub over g.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return dp.Run(g, opts, func(b *dp.Builder) error {
		enumerate(g, b.Engine, g.AllNodes())
		return nil
	})
}

// enumerate is the serial DPsub loop nest (§4.1): Vance–Maier order is
// ascending integer order, so every proper subset of S is enumerated
// before S itself and the DP order is respected.
//
//dp:hotpath
func enumerate(g *hypergraph.Graph, e *memo.Engine, all bitset.Set) {
outer:
	for S := range all.SubsetsOf() {
		if S.Len() < 2 {
			continue
		}
		// "DPsub generates all subsets S1 ⊂ S and joins the best plans
		// for S1 and S2 = S ∖ S1."
		for S1 := range S.SubsetsOf() {
			if S1.Equal(S) {
				break // proper subsets only
			}
			// DPsub spends Θ(3^n) iterations mostly on failing subset
			// tests; poll cancellation in the innermost loop.
			if !e.Step() {
				break outer
			}
			S2 := S.Minus(S1)
			if !e.Contains(S1) || !e.Contains(S2) {
				continue // one side is not a connected subgraph
			}
			if !g.ConnectsTo(S1, S2) {
				continue
			}
			// Both orientations appear in the subset loop; emit the
			// normalized one (EmitPair prices commutative operators in
			// both directions itself).
			if S1.Min() < S2.Min() {
				e.EmitPair(S1, S2)
			}
		}
	}
}
