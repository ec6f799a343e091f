// Package goo implements Greedy Operator Ordering (Fegaras-style greedy
// join ordering as described in Moerkotte's "Building Query Compilers"
// [16]): starting from single relations, repeatedly join the pair of
// connected components whose combination has the smallest estimated
// cardinality.
//
// GOO is not part of the paper's evaluation; it is included as the
// practical fallback a downstream user needs for queries beyond the
// reach of exact dynamic programming (the DP table alone is exponential
// in the number of relations). GOO runs in O(n³) pair inspections, works
// on arbitrary hypergraphs including TES-derived ones, and produces
// valid — though not necessarily optimal — bushy plans through the same
// plan-construction core as the exact algorithms, so operator recovery
// and dependent-join handling behave identically.
package goo

import (
	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
)

// Options mirrors the options of the exact enumerators.
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

// Solve runs greedy operator ordering over g.
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
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

	comps := make([]bitset.Set, n)
	for i := 0; i < n; i++ {
		comps[i] = bitset.Single(i)
	}
	if err := greedy(g, e, comps); err != nil {
		return nil, e.Stats, err
	}
	p, err := b.Final()
	return p, e.Stats, err
}

// greedy repeatedly merges the component pair with the smallest
// estimated join cardinality until one component covers the graph. The
// O(n³) pair scan is the entire cost of a GOO fallback run, which the
// planner invokes precisely when an exact enumeration already spent its
// budget — so the scan itself must not add allocation or miss
// cancellation.
//
//dp:hotpath
func greedy(g *hypergraph.Graph, e *memo.Engine, comps []bitset.Set) error {
	for len(comps) > 1 {
		bestI, bestJ := -1, -1
		bestCard := 0.0
		for i := 0; i < len(comps); i++ {
			for j := i + 1; j < len(comps); j++ {
				if !e.Step() {
					return e.Aborted()
				}
				if !g.ConnectsTo(comps[i], comps[j]) {
					continue
				}
				// Rank by the inner-join cardinality approximation; the
				// real operator is recovered when the pair is emitted.
				hi, iok := e.Lookup(comps[i])
				hj, jok := e.Lookup(comps[j])
				if !iok || !jok {
					panic("goo: component without a memo entry")
				}
				ciCard, _ := e.PlanInfo(hi)
				cjCard, _ := e.PlanInfo(hj)
				card := cost.EstimateCard(algebra.Join, ciCard, cjCard,
					g.SelectivityBetween(comps[i], comps[j]))
				if bestI < 0 || card < bestCard {
					bestI, bestJ, bestCard = i, j, card
				}
			}
		}
		if bestI < 0 {
			return errDisconnected
		}
		s1, s2 := comps[bestI], comps[bestJ]
		if s1.Min() < s2.Min() {
			e.EmitPair(s1, s2)
		} else {
			e.EmitPair(s2, s1)
		}
		merged := s1.Union(s2)
		if !e.Contains(merged) {
			if err := e.Aborted(); err != nil {
				return err
			}
			// The only candidate pair was rejected (dependency or
			// filter); greedy has no alternative to fall back to.
			return errRejected
		}
		comps[bestI] = merged
		comps = append(comps[:bestJ], comps[bestJ+1:]...)
	}
	return nil
}

type solverError string

func (e solverError) Error() string { return string(e) }

const (
	errEmpty        = solverError("goo: empty hypergraph")
	errDisconnected = solverError("goo: hypergraph is disconnected")
	errRejected     = solverError("goo: greedy choice rejected; no plan")
)
