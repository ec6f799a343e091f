// Package core implements DPhyp, the join enumeration algorithm of
// "Dynamic Programming Strikes Back" (Moerkotte & Neumann, SIGMOD 2008).
//
// DPhyp enumerates exactly the csg-cmp-pairs of a query hypergraph in an
// order valid for dynamic programming: every pair (S1',S2') with
// S1' ⊆ S1 and S2' ⊆ S2 is enumerated before (S1,S2). The algorithm is
// structured as the five member functions of §3:
//
//   - Solve initializes the DP table with single-relation plans and
//     seeds the enumeration from every node in decreasing ≺ order;
//   - EnumerateCsgRec grows connected subgraphs by adding subsets of the
//     neighborhood, using DP-table lookups as the connectivity test;
//   - EmitCsg finds complement seeds in the neighborhood of a finished
//     connected subgraph;
//   - EnumerateCmpRec grows those seeds into connected complements;
//   - EmitCsgCmp builds and prices plans for each csg-cmp-pair (shared
//     with the other algorithms via internal/dp).
//
// The pair tests of EmitCsg and EnumerateCmpRec are performed by
// Engine.EmitPair, in the plan builder's walk that prices the pair.
//
// Hyperedges are traversed as n:1 edges leading to a canonical
// representative node of the far side (Equation 1); the remaining nodes
// of a hypernode are picked up by recursive growth and validated against
// the DP table ("this exploits the fact that DP strategies enumerate
// subsets before supersets").
//
// Duplicate complements are avoided with the refinement inherited from
// DPccp [17]: the seed v additionally forbids all neighborhood members
// ordered before it, so every complement is grown from its ≺-minimal
// neighbor exactly once.
package core

import (
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// Options is dp.Options under the name cmd/planbench uses.
type Options = dp.Options

// solver runs DPhyp over one hypergraph. It is a pure enumerator: all
// memoization, budget accounting, and plan construction route through
// the memo engine (e) and its dp.Builder backend.
type solver struct {
	g     *hypergraph.Graph
	e     *memo.Engine
	trace *dp.Trace

	// sc is the reusable neighborhood candidate buffer; together with
	// the incrementally maintained simple-neighbor unions it removes
	// the remaining per-csg allocations from the recursion.
	sc hypergraph.NeighborScratch
}

// Solve runs DPhyp (the Solve routine of §3.1) on g and returns the
// optimal bushy plan without cross products. The graph must stay
// unmodified during the run. It enumerates serially at any worker
// count.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return dp.Run(g, opts, func(b *dp.Builder) error {
		s := &solver{g: g, e: b.Engine, trace: opts.Trace}
		s.enumerate()
		return nil
	})
}

// enumerate drives the §3.1 outer loop.
//
//dp:hotpath
func (s *solver) enumerate() {
	// "for each v ∈ V descending according to ≺: EmitCsg({v});
	// EnumerateCsgRec({v}, B_v)"
	for v := s.g.NumRels() - 1; v >= 0 && s.e.Aborted() == nil; v-- {
		S := bitset.Single(v)
		su := s.g.SimpleNeighborUnion(S)
		s.trace.Add(dp.StepStartNode, S, bitset.Empty)
		s.emitCsg(S, su)
		s.enumerateCsgRec(S, bitset.BelowEq(v), su)
	}
}

// enumerateCsgRec extends the connected subgraph S1 (§3.2). X is the set
// of forbidden nodes; every node the function will consider itself is
// forbidden in recursive calls to avoid duplicate enumeration. su is
// the incrementally maintained SimpleNeighborUnion of S1.
//
//dp:hotpath
func (s *solver) enumerateCsgRec(S1, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.NeighborhoodWith(S1, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	// First pass: emit smaller sets before growing them further. The
	// Vance–Maier order enumerates every proper subset of a subset
	// before it, so the DP order is respected within the loop, too.
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		if !s.e.Step() {
			return
		}
		next := S1.Union(n)
		if s.e.Contains(next) {
			s.trace.Add(dp.StepCsg, next, bitset.Empty)
			s.emitCsg(next, su.Union(s.g.SimpleNeighborUnion(n)))
		}
		if n.Equal(N) {
			break
		}
	}
	// Second pass: recursive growth with the whole neighborhood
	// forbidden ("when a function performs a recursive call it forbids
	// all nodes it will investigate itself").
	newX := X.Union(N)
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		s.enumerateCsgRec(S1.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
		if n.Equal(N) {
			break
		}
	}
}

// emitCsg generates the seeds of all complements of the connected
// subgraph S1 (§3.3). su is the SimpleNeighborUnion of S1.
//
//dp:hotpath
func (s *solver) emitCsg(S1, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	X := S1.Union(bitset.BelowEq(S1.Min()))
	N := s.g.NeighborhoodWith(S1, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	// "for each v ∈ N descending according to ≺"
	for v := N.Max(); v >= 0 && s.e.Aborted() == nil; v = prevElem(N, v) {
		S2 := bitset.Single(v)
		// "if ∃(u,v) ∈ E : u ⊆ S1 ∧ v ⊆ S2": the neighborhood may
		// contain representatives of larger hypernodes that do not yet
		// connect (§3.3's step 20: no edge between {R1,R2,R3} and {R4}).
		// EmitPair performs the test.
		if s.e.EmitPair(S1, S2) {
			s.trace.Add(dp.StepCmp, S1, S2)
		}
		// Forbid the smaller-ordered neighbors while growing this seed so
		// each complement is produced from its ≺-minimal seed only (the
		// duplicate-avoidance scheme of DPccp [17]).
		s.enumerateCmpRec(S1, S2, X.Union(N.Intersect(bitset.BelowEq(v))), s.g.SimpleNeighborUnion(S2))
	}
}

// prevElem returns the largest element of N strictly below v, or -1.
//
//dp:hotpath
func prevElem(N bitset.Set, v int) int {
	below := N.Intersect(bitset.Below(v))
	if below.IsEmpty() {
		return -1
	}
	return below.Max()
}

// enumerateCmpRec grows the complement S2 of S1 (§3.4). su is the
// SimpleNeighborUnion of S2.
//
//dp:hotpath
func (s *solver) enumerateCmpRec(S1, S2, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.NeighborhoodWith(S2, X, su, &s.sc)
	if N.IsEmpty() {
		return
	}
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		if !s.e.Step() {
			return
		}
		next := S2.Union(n)
		// "if dpTable[S2 ∪ N] ≠ ∅ ∧ ∃(u,v) ∈ E : u ⊆ S1 ∧ v ⊆ S2 ∪ N":
		// EmitPair performs both tests.
		if s.e.EmitPair(S1, next) {
			s.trace.Add(dp.StepCmp, S1, next)
		}
		if n.Equal(N) {
			break
		}
	}
	// "X = X ∪ N(S2,X)" before the recursive descent.
	newX := X.Union(N)
	for n := bitset.Empty.NextSubset(N); ; n = n.NextSubset(N) {
		s.enumerateCmpRec(S1, S2.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
		if n.Equal(N) {
			break
		}
	}
}
