package goo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/optree"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestRankingMatchesPricedCard: on hypergraphs, GOO ranks a merge by
// the card the plan builder then prices it at. For every join of a
// Greedy plan over 60 random LargeConfig hypergraphs of 20–59
// relations, the ranking of the join's children (Builder.JoinCard)
// equals the join's card to the bit. A ranking that charges only the
// edges whose hypernodes lie on opposite sides misses a hyperedge the
// merge completes across split hypernodes, and fails this on every
// graph.
func TestRankingMatchesPricedCard(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	joins := 0
	for trial := 0; trial < 60; trial++ {
		cfg := workload.LargeConfig()
		cfg.Seed = int64(trial)
		n := 20 + trial%40
		g := workload.RandomHyper(rng, n, n/2, cfg)
		p, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Replay the plan bottom-up, ranking each join's children before
		// the builder prices the join and makes its entry.
		_, _, err = dp.Run(g, dp.Options{}, func(b *dp.Builder) error {
			var replay func(n *plan.Node) error
			replay = func(n *plan.Node) error {
				if n.IsLeaf() {
					return nil
				}
				if err := replay(n.Left); err != nil {
					return err
				}
				if err := replay(n.Right); err != nil {
					return err
				}
				joins++
				card, connected := b.JoinCard(n.Left.Rels, n.Right.Rels)
				if !connected || math.Float64bits(card) != math.Float64bits(n.Card) {
					return fmt.Errorf("%d relations: join %v ranked at %v (connected %t), priced at %v",
						n.Rels.Len(), n.Rels, card, connected, n.Card)
				}
				b.PriceJoin(n.Left.Rels, n.Right.Rels)
				return nil
			}
			return replay(p)
		})
		if err != nil {
			t.Errorf("graph %d: %v", trial, err)
		}
	}
	if joins < 2000 {
		t.Errorf("checked %d joins, want at least 2000", joins)
	}
}

// rescan is greedy as a full rescan, kept as the reference for the
// incremental ranking: after every merge it re-ranks every pair of the
// current components, testing each with an all-edges connectivity scan
// (Graph.ConnectsTo) and ranking it with the same function, JoinCard.
func rescan(b *dp.Builder) error {
	g, e := b.G, b.Engine
	comps := make([]bitset.Set, g.NumRels())
	for i := range comps {
		comps[i] = bitset.Single(i)
	}
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
				card, _ := b.JoinCard(comps[i], comps[j])
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
			return errRejected
		}
		comps[bestI] = merged
		comps = append(comps[:bestJ], comps[bestJ+1:]...)
	}
	return nil
}

// outcome is one run's observable result.
type outcome struct {
	plan  *plan.Node
	stats dp.Stats
	err   error
	emits [][2]bitset.Set
}

func observe(g *hypergraph.Graph, opts dp.Options, enumerate func(*dp.Builder) error) outcome {
	var o outcome
	opts.OnEmit = func(S1, S2 bitset.Set) { o.emits = append(o.emits, [2]bitset.Set{S1, S2}) }
	o.plan, o.stats, o.err = dp.Run(g, opts, enumerate)
	return o
}

// nanGraph is a graph whose third merge is the first connected pair in
// scan order and has a NaN card: {R0, R1} underflows to a card of 0,
// {R2, R3} overflows to +Inf, and only a hyperedge joins them. The
// later pair ({R2, R3}, {R4}) has card +Inf, which does not displace
// the NaN.
func nanGraph() *hypergraph.Graph {
	g := hypergraph.New()
	for _, c := range []float64{1e-200, 1e-200, 1e300, 1e300, 10} {
		g.AddRelation(fmt.Sprintf("R%d", g.NumRels()), c)
	}
	g.AddSimpleEdge(0, 1, 1e-200)
	g.AddSimpleEdge(2, 3, 1)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(2, 3), Sel: 0.5})
	g.AddEdge(hypergraph.Edge{U: bitset.New(4), V: bitset.New(2, 3), Sel: 0.5})
	return g
}

// treeGraph is the TES hypergraph of an operator tree with non-inner
// operators (§5.7).
func treeGraph(root *optree.Node, rels []optree.RelInfo) *hypergraph.Graph {
	tr, err := optree.Analyze(root, rels, optree.Conservative)
	if err != nil {
		panic(err)
	}
	return tr.Hypergraph(optree.TESEdges)
}

// TestIncrementalMatchesRescan: ranking each pair once and re-ranking
// only the merged component's pairs merges exactly as re-ranking every
// pair after every merge: the same emitted pairs in the same order, the
// same plan to the bit, the same Stats and the same error, under two
// cost models and three limits, on chains, cycles, stars, grids and
// cliques of up to 64 relations, all-tie graphs, +Inf cards, a NaN
// card, dependent relations and non-inner operator trees.
func TestIncrementalMatchesRescan(t *testing.T) {
	cfg, large := workload.DefaultConfig(), workload.LargeConfig()
	clique := large
	clique.MinSel, clique.MaxSel = 0.1, 1
	tie := workload.Config{MinCard: 10, MaxCard: 10, MinSel: 0.5, MaxSel: 0.5}
	inf := workload.Config{MinCard: 1e30, MaxCard: 1e30, MinSel: 0.5, MaxSel: 0.5}
	rng := rand.New(rand.NewSource(27))
	dep := workload.RandomSimple(rng, 12, 6, cfg)
	dep.SetFree(7, bitset.New(2))
	dep.SetFree(4, bitset.New(1, 8))
	graphs := []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"chain10", workload.Chain(10, cfg)},
		{"chain64-large", workload.Chain(64, large)},
		{"cycle12", workload.Cycle(12, cfg)},
		{"cycle64-large", workload.Cycle(64, large)},
		{"star14", workload.Star(14, cfg)},
		{"star64-large", workload.Star(64, large)},
		{"grid4x4", workload.Grid(4, 4, cfg)},
		{"grid8x8-large", workload.Grid(8, 8, large)},
		{"clique10", workload.Clique(10, cfg)},
		{"clique40-large", workload.Clique(40, clique)},
		{"cycle-hyper12/3", workload.CycleHyper(12, 3, cfg)},
		{"chain20-tie", workload.Chain(20, tie)},
		{"star16-tie", workload.Star(16, tie)},
		{"grid5x5-tie", workload.Grid(5, 5, tie)},
		{"clique12-tie", workload.Clique(12, tie)},
		{"chain24-inf", workload.Chain(24, inf)},
		{"nan5", nanGraph()},
		{"dependent12", dep},
		{"star-antijoin12/4", treeGraph(workload.StarTree(12, 4, cfg))},
		{"cycle-outer12/6", treeGraph(workload.CycleTree(12, 6, cfg))},
	}
	infs, nans := 0, 0
	for _, c := range graphs {
		c.g.Freeze()
		for _, m := range []cost.Model{cost.Cout{}, cost.Hash{}} {
			for _, limits := range []dp.Limits{{}, {MaxCsgCmpPairs: 7}, {MaxCostedPlans: 9}} {
				opts := dp.Options{Model: m, Limits: limits}
				got, want := observe(c.g, opts, run), observe(c.g, opts, rescan)
				where := fmt.Sprintf("%s, %s, %+v", c.name, m.Name(), limits)
				if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
					t.Fatalf("%s: errors %v and %v", where, got.err, want.err)
				}
				if !slices.EqualFunc(got.emits, want.emits, func(a, b [2]bitset.Set) bool {
					return a[0].Equal(b[0]) && a[1].Equal(b[1])
				}) {
					t.Errorf("%s: merge sequences differ:\n incremental %v\n rescan      %v", where, got.emits, want.emits)
				}
				if got.stats != want.stats {
					t.Errorf("%s: stats differ:\n incremental %+v\n rescan      %+v", where, got.stats, want.stats)
				}
				if got.err != nil {
					continue
				}
				if d := planDiff(got.plan, want.plan); d != "" {
					t.Errorf("%s: plans differ: %s", where, d)
				}
				switch {
				case math.IsInf(got.plan.Card, 1):
					infs++
				case math.IsNaN(got.plan.Card):
					nans++
					if e := got.emits[2]; !e[0].Equal(bitset.New(0, 1)) || !e[1].Equal(bitset.New(2, 3)) {
						t.Errorf("%s: third merge %v, want the NaN pair {0,1} {2,3}", where, e)
					}
				}
			}
		}
	}
	if infs == 0 || nans == 0 {
		t.Errorf("%d plans with a +Inf card and %d with NaN, want some of each", infs, nans)
	}
}

// TestCancelMidRun: a context canceled between merges stops the run
// with the context's error, in the incremental ranking as in the
// rescan.
func TestCancelMidRun(t *testing.T) {
	g := workload.Clique(40, workload.LargeConfig())
	for name, enumerate := range map[string]func(*dp.Builder) error{"incremental": run, "rescan": rescan} {
		ctx, cancel := context.WithCancel(context.Background())
		merges := 0
		opts := dp.Options{Limits: dp.Limits{Ctx: ctx}, OnEmit: func(_, _ bitset.Set) {
			if merges++; merges == 5 {
				cancel()
			}
		}}
		_, _, err := dp.Run(g, opts, enumerate)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled after %d merges, err = %v, want context.Canceled", name, merges, err)
		}
	}
}

// planDiff returns the first difference between p and q, or "" when
// they are identical to the bit.
func planDiff(p, q *plan.Node) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case p.Op != q.Op || p.Phys != q.Phys || p.Rel != q.Rel || !p.Rels.Equal(q.Rels):
		return p.Compact() + " vs " + q.Compact()
	case !same(p.Card, q.Card) || !same(p.Cost, q.Cost):
		return "card/cost bits at " + p.Rels.String()
	case !slices.Equal(p.Edges, q.Edges):
		return "edges at " + p.Rels.String()
	case p.IsLeaf():
		return ""
	}
	if d := planDiff(p.Left, q.Left); d != "" {
		return d
	}
	return planDiff(p.Right, q.Right)
}
