// Package dpccp implements DPccp, the csg-cmp-pair enumerator for
// ordinary (simple) query graphs from Moerkotte & Neumann, VLDB 2006
// [17] — the starting point the DPhyp paper generalizes.
//
// On simple graphs connectivity is preserved by construction (subgraphs
// grow along adjacency), so DPccp needs no failing tests at all: every
// emission is a valid csg-cmp-pair, which is why it meets the §2.2 lower
// bound exactly. The package exists as a cross-check for §4.4's claim
// that "DPhyp performs exactly like DPccp on regular graphs": the tests
// verify both emit identical pair sequences. It serves direct calls and
// the §4 comparisons only; SolverAuto plans with DPhyp.
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo),
// and neighborhood subsets are generated with the bitset.SubsetsOf
// iterator. As in DPhyp's recursion, each set travels with the union of
// its members' simple neighbours, so N(S, X) is that union minus S ∪ X
// and growing S by n adds only n's neighbours. A set a filter or
// dependency constraint left without a plan makes Engine.EmitPair
// decline every pair it is a side of.
//
// Solve fails with ErrHyperedge if the graph contains hyperedges; use
// DPhyp for those.
package dpccp

import (
	"errors"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// ErrHyperedge is returned for a graph with a hyperedge.
var ErrHyperedge = errors.New("dpccp: hyperedge in input graph; DPccp handles simple graphs only")

type solver struct {
	g *hypergraph.Graph
	e *memo.Engine
}

// Solve runs DPccp over the simple graph g.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	if g.HasHyperedges() {
		return nil, dp.Stats{}, ErrHyperedge
	}
	return dp.Run(g, opts, func(b *dp.Builder) error {
		s := &solver{g: g, e: b.Engine}
		for v := g.NumRels() - 1; v >= 0 && s.e.Aborted() == nil; v-- {
			S := bitset.Single(v)
			su := g.SimpleNeighborUnion(S)
			s.emitCmp(S, su)
			s.enumerateCsgRec(S, bitset.BelowEq(v), su)
		}
		return nil
	})
}

// enumerateCsgRec grows connected subgraphs along the adjacency
// structure. On simple graphs S1 ∪ N' is connected for every non-empty
// N' ⊆ N(S1), so no membership test is required. su is the
// SimpleNeighborUnion of S1.
//
//dp:hotpath
func (s *solver) enumerateCsgRec(S1, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := su.Minus(S1.Union(X))
	if N.IsEmpty() {
		return
	}
	for n := range N.SubsetsOf() {
		if !s.e.Step() {
			return
		}
		s.emitCmp(S1.Union(n), su.Union(s.g.SimpleNeighborUnion(n)))
	}
	newX := X.Union(N)
	for n := range N.SubsetsOf() {
		s.enumerateCsgRec(S1.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
	}
}

// emitCmp enumerates all connected complements of the csg S1, whose
// SimpleNeighborUnion is su. Nodes ordered before min(S1) are excluded
// to avoid duplicate pairs; each complement is grown from its
// ≺-minimal neighbor.
//
//dp:hotpath
func (s *solver) emitCmp(S1, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	X := S1.Union(bitset.BelowEq(S1.Min()))
	N := su.Minus(X)
	if N.IsEmpty() {
		return
	}
	for v := N.Max(); v >= 0 && s.e.Aborted() == nil; v = prevElem(N, v) {
		S2 := bitset.Single(v)
		s.e.EmitPair(S1, S2)
		s.growCmp(S1, S2, X.Union(N.Intersect(bitset.BelowEq(v))), s.g.SimpleNeighborUnion(S2))
	}
}

// growCmp extends the complement S2, whose SimpleNeighborUnion is su;
// every grown set remains connected and adjacent to S1, so every grown
// set is offered to EmitPair.
//
//dp:hotpath
func (s *solver) growCmp(S1, S2, X, su bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := su.Minus(S2.Union(X))
	if N.IsEmpty() {
		return
	}
	for n := range N.SubsetsOf() {
		if !s.e.Step() {
			return
		}
		s.e.EmitPair(S1, S2.Union(n))
	}
	newX := X.Union(N)
	for n := range N.SubsetsOf() {
		s.growCmp(S1, S2.Union(n), newX, su.Union(s.g.SimpleNeighborUnion(n)))
	}
}

//dp:hotpath
func prevElem(N bitset.Set, v int) int {
	below := N.Intersect(bitset.Below(v))
	if below.IsEmpty() {
		return -1
	}
	return below.Max()
}
