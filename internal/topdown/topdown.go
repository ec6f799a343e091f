// Package topdown implements a naive top-down memoization join
// enumerator — the "main competitor for dynamic programming" discussed in
// §1 of the paper. It recursively partitions relation sets, memoizing
// best plans, and needs generate-and-test over all 2^(|S|-1) partitions
// of every set it visits: exactly the overhead that DeHaan and Tompa's
// Top-Down Partition Search [7] removes with minimal graph cuts, and
// that DPccp/DPhyp avoid bottom-up.
//
// The paper does not measure this baseline (it measures DPsize and
// DPsub); it is included as an extension so the repository can
// demonstrate the §1 claim that naive memoization pays for failing
// partition tests the same way DPsub does.
//
// The solver is a pure enumerator: plan memoization, budgets, and plan
// construction route through the shared memo engine, and the failure
// memo (sets whose partitions have been fully explored without a plan)
// uses the same open-addressing memo.Table instead of a Go map.
package topdown

import (
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// Solve runs top-down memoization over g.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return dp.Run(g, opts, func(b *dp.Builder) error {
		// done marks sets whose partitions have all been explored,
		// whether or not a plan was found (failure memoization matters:
		// disconnected sets are re-encountered exponentially often
		// otherwise). It lives in the engine's scratch table so its
		// storage is pooled across runs.
		e := b.Engine
		s := solver{g: g, e: e, done: e.Scratch(1 << uint(min(g.NumRels(), 12)))}
		s.solve(g.AllNodes())
		return nil
	})
}

// solver carries the recursion state of one top-down run, so the
// recursive partition search is a named method rather than a closure
// (closures allocate and cannot carry directives).
type solver struct {
	g    *hypergraph.Graph
	e    *memo.Engine
	done *memo.Table
}

// solve reports whether a plan for S exists in the memo after
// exploring S's partitions.
//
//dp:hotpath
func (s *solver) solve(S bitset.Set) bool {
	if S.IsSingleton() {
		return true // seeded by Init
	}
	if _, ok := s.done.Get(S); ok {
		return s.e.Contains(S)
	}
	s.done.Put(S, 1)
	// Generate-and-test over all partitions with min(S) ∈ S1,
	// recursing first so subplans are final before pricing.
	lo := S.MinSet()
	rest := S.MinusMin()
	for a := bitset.Empty; ; a = a.NextSubset(rest) {
		// The partition generate-and-test loop is where this
		// enumerator spends its time; poll cancellation here.
		if !s.e.Step() {
			return false
		}
		S1 := lo.Union(a)
		S2 := S.Minus(S1)
		if S2.IsEmpty() {
			break // a == rest: S1 == S
		}
		if s.g.ConnectsTo(S1, S2) && s.solve(S1) && s.solve(S2) {
			s.e.EmitPair(S1, S2)
		}
		if a.Equal(rest) {
			break
		}
	}
	return s.e.Contains(S)
}
