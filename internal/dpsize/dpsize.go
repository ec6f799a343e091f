// Package dpsize implements the size-driven dynamic programming
// algorithm of Figure 1 of the paper — the Selinger-style enumerator
// "which still forms the core of state-of-the-art commercial query
// optimizers like the one of DB2" — extended to hypergraphs.
//
// DPsize generates plans in the order of increasing size: for every plan
// size s it pairs every table entry of size s1 with every entry of size
// s − s1 and applies two tests, marked (*) in the paper's pseudocode:
// disjointness and graph connectivity. As the paper's complexity
// analysis [17] shows, these tests fail far more often than they
// succeed, which is exactly the overhead the evaluation measures. To
// deal with hypergraphs, "the pseudocode does not have to be changed:
// only the second test has to be implemented in such a way that it is
// capable to deal with hyperedges" (§4.1) — here via
// hypergraph.ConnectsTo, which understands hypernodes and generalized
// edges.
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo).
package dpsize

import (
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// Solve runs DPsize over g and returns the optimal bushy cross-product-
// free plan, enumeration statistics, and an error if no plan exists.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return dp.Run(g, opts, func(b *dp.Builder) error {
		// bySize[s] lists the connected subgraphs of size s discovered
		// so far. Entries of size s are only created while processing
		// plan size s, so collecting after each round keeps the lists
		// complete.
		n := g.NumRels()
		bySize := make([][]bitset.Set, n+1)
		for i := 0; i < n; i++ {
			bySize[1] = append(bySize[1], bitset.Single(i))
		}
		enumerate(g, b.Engine, bySize, n)
		return nil
	})
}

// enumerate is the DPsize loop nest of Fig. 3: all (S1, S2)
// candidate pairs by ascending plan size, dominated by the failing (*)
// tests.
//
//dp:hotpath
func enumerate(g *hypergraph.Graph, e *memo.Engine, bySize [][]bitset.Set, n int) {
sizes:
	for s := 2; s <= n; s++ { // "for ∀ 1 < s ≤ n ascending: size of plan"
		for s1 := 1; s1 < s; s1++ { // "size of left subplan"
			s2 := s - s1
			for _, S1 := range bySize[s1] {
				for _, S2 := range bySize[s2] {
					// The failing (*) tests dominate the run time, so the
					// cancellation poll sits in the innermost loop.
					if !e.Step() {
						break sizes
					}
					if !S1.Disjoint(S2) { // (*) "if S1 ∩ S2 ≠ ∅ continue"
						continue
					}
					if !g.ConnectsTo(S1, S2) { // (*) hyperedge-capable test
						continue
					}
					// The s1/s2 double loop visits each unordered pair in
					// both orientations; EmitPair prices both sides of
					// commutative operators itself, so emit once.
					if S1.Min() < S2.Min() {
						e.EmitPair(S1, S2)
					}
				}
			}
		}
		collectSize(e, bySize, s)
	}
}

// collectSize gathers the connected subgraphs of size s the round just
// created, completing bySize[s] before the next plan size reads it.
//
//dp:coldpath runs once per plan-size level, not per candidate pair
func collectSize(e *memo.Engine, bySize [][]bitset.Set, s int) {
	e.ForEach(func(S bitset.Set) {
		if S.Len() == s {
			bySize[s] = append(bySize[s], S)
		}
	})
}
