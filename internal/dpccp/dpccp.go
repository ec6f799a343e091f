// Package dpccp implements DPccp, the csg-cmp-pair enumerator for
// ordinary (simple) query graphs from Moerkotte & Neumann, VLDB 2006
// [17] — the starting point the DPhyp paper generalizes.
//
// On simple graphs connectivity is preserved by construction (subgraphs
// grow along adjacency), so DPccp needs no failing tests at all: every
// emission is a valid csg-cmp-pair, which is why it meets the §2.2 lower
// bound exactly. The package exists as a cross-check for §4.4's claim
// that "DPhyp performs exactly like DPccp on regular graphs": the tests
// verify both emit identical pair sequences.
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo),
// and neighborhood subsets are generated with the bitset.SubsetsOf
// iterator.
//
// Solve panics if the graph contains hyperedges; use DPhyp for those.
package dpccp

import (
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Options mirrors the options of the other enumerators.
type Options struct {
	Model  cost.Model
	Filter dp.Filter
	OnEmit func(S1, S2 bitset.Set)
	Limits dp.Limits
	Pool   *memo.Pool

	// Explain, when non-nil, receives phase spans for the run (the
	// engine records the materialize phase; the planner wraps the whole
	// enumeration).
	Explain *obs.Trace
}

type solver struct {
	g *hypergraph.Graph
	e *memo.Engine
}

// Solve runs DPccp over the simple graph g.
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
	for i := 0; i < g.NumEdges(); i++ {
		if !g.Edge(i).Simple() {
			panic("dpccp: hyperedge in input graph; DPccp handles simple graphs only")
		}
	}
	e, b := dp.NewRun(opts.Pool, g, opts.Model)
	defer opts.Pool.Put(e)
	b.Filter = opts.Filter
	e.OnEmit = opts.OnEmit
	e.SetLimits(opts.Limits)
	e.SetTrace(opts.Explain)
	n := g.NumRels()
	if n == 0 {
		return nil, e.Stats, errEmpty
	}
	b.Init()

	s := &solver{g: g, e: e}
	for v := n - 1; v >= 0 && e.Aborted() == nil; v-- {
		S := bitset.Single(v)
		s.emitCmp(S)
		s.enumerateCsgRec(S, bitset.BelowEq(v))
	}
	p, err := b.Final()
	return p, e.Stats, err
}

// enumerateCsgRec grows connected subgraphs along the adjacency
// structure. On simple graphs S1 ∪ N' is connected for every non-empty
// N' ⊆ N(S1), so no membership test is required.
//
//dp:hotpath
func (s *solver) enumerateCsgRec(S1, X bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.Neighborhood(S1, X)
	if N.IsEmpty() {
		return
	}
	for n := range N.SubsetsOf() {
		if !s.e.Step() {
			return
		}
		s.emitCmp(S1.Union(n))
	}
	newX := X.Union(N)
	for n := range N.SubsetsOf() {
		s.enumerateCsgRec(S1.Union(n), newX)
	}
}

// emitCmp enumerates all connected complements of the csg S1. Nodes
// ordered before min(S1) are excluded to avoid duplicate pairs; each
// complement is grown from its ≺-minimal neighbor.
//
//dp:hotpath
func (s *solver) emitCmp(S1 bitset.Set) {
	if !s.e.Step() {
		return
	}
	X := S1.Union(bitset.BelowEq(S1.Min()))
	N := s.g.Neighborhood(S1, X)
	if N.IsEmpty() {
		return
	}
	for v := N.Max(); v >= 0 && s.e.Aborted() == nil; v = prevElem(N, v) {
		S2 := bitset.Single(v)
		s.e.EmitPair(S1, S2)
		s.growCmp(S1, S2, X.Union(N.Intersect(bitset.BelowEq(v))))
	}
}

// growCmp extends the complement S2; every grown set remains connected
// and adjacent to S1, so every subset is emitted unconditionally.
//
//dp:hotpath
func (s *solver) growCmp(S1, S2, X bitset.Set) {
	if !s.e.Step() {
		return
	}
	N := s.g.Neighborhood(S2, X)
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
		s.growCmp(S1, S2.Union(n), newX)
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

type solverError string

func (e solverError) Error() string { return string(e) }

const errEmpty = solverError("dpccp: empty graph")
