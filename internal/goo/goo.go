// Package goo implements Greedy Operator Ordering (Fegaras-style greedy
// join ordering as described in Moerkotte's "Building Query Compilers"
// [16]): starting from single relations, repeatedly join the pair of
// connected components whose combination has the smallest estimated
// cardinality.
//
// GOO is not part of the paper's evaluation; it is included as the
// practical fallback a downstream user needs for queries beyond the
// reach of exact dynamic programming (the DP table alone is exponential
// in the number of relations). GOO makes about n² rankings, each an
// incidence-row walk of the plan builder (dp.Builder.JoinCard), works on
// arbitrary hypergraphs including TES-derived ones, and produces valid —
// though not necessarily optimal — bushy plans through the same
// plan-construction core as the exact algorithms, so operator recovery
// and dependent-join handling behave identically.
package goo

import (
	"errors"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/plan"
)

// Options is dp.Options under the name cmd/planbench uses.
type Options = dp.Options

// Solve runs greedy operator ordering over g.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	opts.Entries = 2*g.NumRels() - 1
	return dp.Run(g, opts, run)
}

// run is Solve's enumeration: every relation starts as its own
// component.
func run(b *dp.Builder) error {
	n := b.G.NumRels()
	comps := make([]bitset.Set, n)
	live := make([]int, n)
	for i := range comps {
		comps[i], live[i] = bitset.Single(i), i
	}
	return greedy(b, comps, live, b.Ranks(n*(n-1)/2))
}

// greedy repeatedly merges the component pair with the smallest
// estimated join cardinality until one component covers the graph.
//
// A component keeps the slot of its smallest relation: live lists the
// slots of the current components in ascending order, and for each
// slot s in live, comps[s] is the component whose minimum is s. ranks
// caches the ranking of every pair of slots a < b at pairIndex(a, b,
// len(comps)). A ranking depends only on the two components, whose
// memo entries never change once made, so each pair is ranked once:
// every pair at the start, and after a merge only the pairs of the
// merged component. That is about n² rankings, each an incidence-row
// walk, where a full rescan after every merge makes about n³/6. The
// merge chosen is the first connected pair in (i, j) order over live,
// replaced by any pair with a strictly smaller card, so a NaN card
// never displaces the incumbent and a first pair with a NaN card keeps
// winning. The run is the whole cost of a GOO fallback, which the
// planner invokes precisely when an exact enumeration already spent its
// budget, so it must not allocate or miss cancellation: Step is polled
// per ranking and per scanned row.
//
//dp:hotpath
func greedy(b *dp.Builder, comps []bitset.Set, live []int, ranks []dp.Rank) error {
	e, n := b.Engine, len(comps)
	for i, a := range live {
		for _, c := range live[i+1:] {
			if !e.Step() {
				return e.Aborted()
			}
			r := &ranks[pairIndex(a, c, n)]
			r.Card, r.Connected = b.JoinCard(comps[a], comps[c])
		}
	}
	for len(live) > 1 {
		bestI, bestJ := -1, -1
		bestCard := 0.0
		for i, a := range live {
			if !e.Step() {
				return e.Aborted()
			}
			row := pairIndex(a, 0, n)
			for j := i + 1; j < len(live); j++ {
				r := ranks[row+live[j]]
				if r.Connected && (bestI < 0 || r.Card < bestCard) {
					bestI, bestJ, bestCard = i, j, r.Card
				}
			}
		}
		if bestI < 0 {
			return errDisconnected
		}
		// Slot s holds the component whose minimum is s, so the lower
		// slot's component comes first, as EmitPair's order wants.
		a, c := live[bestI], live[bestJ]
		e.EmitPair(comps[a], comps[c])
		merged := comps[a].Union(comps[c])
		if !e.Contains(merged) {
			if err := e.Aborted(); err != nil {
				return err
			}
			// The only candidate pair was rejected (dependency or
			// filter); greedy has no alternative to fall back to.
			return errRejected
		}
		comps[a] = merged
		live = append(live[:bestJ], live[bestJ+1:]...)
		for _, s := range live {
			if s == a {
				continue
			}
			if !e.Step() {
				return e.Aborted()
			}
			lo, hi := min(a, s), max(a, s)
			r := &ranks[pairIndex(lo, hi, n)]
			r.Card, r.Connected = b.JoinCard(comps[lo], comps[hi])
		}
	}
	return nil
}

// pairIndex is the position of slot pair (a, b), a < b, in a row-major
// upper triangle over n slots: row a holds the pairs (a, a+1..n-1), so
// a row's rankings are contiguous, and ranks[pairIndex(a, 0, n)+b] is
// pair (a, b).
func pairIndex(a, b, n int) int { return a*(2*n-a-1)/2 + b - a - 1 }

var (
	errDisconnected = errors.New("goo: hypergraph is disconnected")
	errRejected     = errors.New("goo: greedy choice rejected; no plan")
)
