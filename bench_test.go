// Benchmarks reproducing the paper's evaluation, one per table and
// figure. Each benchmark sweeps the experiment's parameter and runs every
// competing algorithm as a sub-benchmark; cmd/dpbench prints the same
// series as tables (and, with -full, at the paper's exact sizes —
// several of the 16-relation DPsize/DPsub cells take minutes, so the
// testing.B versions here use the reduced "quick" sizes for the large
// instances; IDs carry a -quick suffix where they differ).
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Fig7 -benchtime=3x
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/optree"
	"repro/internal/plan"
	"repro/internal/workload"
)

// benchSeries runs one experiment series as sub-benchmarks. For long
// sweeps only representative points (first, middle, last) are measured;
// cmd/dpbench covers the full sweep.
func benchSeries(b *testing.B, id string, allPoints bool) {
	s, ok := experiments.ByID(experiments.Quick(), id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	xs := s.Xs
	if !allPoints && len(xs) > 3 {
		xs = []int{s.Xs[0], s.Xs[len(s.Xs)/2], s.Xs[len(s.Xs)-1]}
	}
	ctx := context.Background()
	for _, x := range xs {
		for _, alg := range s.Algs {
			run := s.Make(x, alg)
			b.Run(fmt.Sprintf("%s=%d/%s", s.XLabel, x, alg), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := run(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableCycle4 reproduces the §4.2 table (cycles, 4 relations).
func BenchmarkTableCycle4(b *testing.B) { benchSeries(b, "table-cycle4", true) }

// BenchmarkTableStar4 reproduces the §4.3 table (stars, 4 satellites).
func BenchmarkTableStar4(b *testing.B) { benchSeries(b, "table-star4", true) }

// BenchmarkFig5Cycle8 reproduces Fig. 5 (left): cycle-based hypergraphs
// with 8 relations over hyperedge splits.
func BenchmarkFig5Cycle8(b *testing.B) { benchSeries(b, "fig5-cycle8", true) }

// BenchmarkFig5Cycle16 reproduces Fig. 5 (right) at the reduced size of
// 12 relations (the paper's 16-relation DPsub cells run for seconds to
// minutes; use `dpbench -full` for the original size).
func BenchmarkFig5Cycle16(b *testing.B) { benchSeries(b, "fig5-cycle12-quick", false) }

// BenchmarkFig6Star8 reproduces Fig. 6 (left): star-based hypergraphs
// with 8 satellites over hyperedge splits.
func BenchmarkFig6Star8(b *testing.B) { benchSeries(b, "fig6-star8", true) }

// BenchmarkFig6Star16 reproduces Fig. 6 (right) at the reduced size of
// 12 satellites (see BenchmarkFig5Cycle16).
func BenchmarkFig6Star16(b *testing.B) { benchSeries(b, "fig6-star12-quick", false) }

// BenchmarkFig7StarRegular reproduces Fig. 7: star queries without
// hyperedges over the number of relations.
func BenchmarkFig7StarRegular(b *testing.B) { benchSeries(b, "fig7-star-regular-quick", false) }

// BenchmarkFig8aAntijoins reproduces Fig. 8a: a left-deep star operator
// tree with increasing antijoins; hyperedge-driven DPhyp vs the TES
// generate-and-test alternative.
func BenchmarkFig8aAntijoins(b *testing.B) { benchSeries(b, "fig8a-antijoin-quick", false) }

// BenchmarkFig8bOuterJoins reproduces Fig. 8b: a left-deep cycle operator
// tree with increasing outer joins; DPhyp vs DPsize.
func BenchmarkFig8bOuterJoins(b *testing.B) { benchSeries(b, "fig8b-outerjoin-quick", false) }

// BenchmarkAblationConflictRules contrasts the conservative conflict rule
// (default; reproduces the paper's measured Fig. 8a shrinkage) with the
// literal published rule on the all-antijoin star: the published rule
// leaves antijoins freely reorderable around the hub, so it explores the
// full star space.
func BenchmarkAblationConflictRules(b *testing.B) {
	const n = 12
	for _, rule := range []optree.ConflictRule{optree.Conservative, optree.Published} {
		root, rels := workload.StarTree(n, n-1, workload.DefaultConfig())
		tr, err := optree.Analyze(root, rels, rule)
		if err != nil {
			b.Fatal(err)
		}
		g := tr.Hypergraph(optree.TESEdges)
		// A dedicated cache-less Planner: the benchmark measures
		// enumeration, not cache hits.
		p := NewPlanner(WithPlanCacheSize(0))
		ctx := context.Background()
		b.Run(rule.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.PlanGraph(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTopDown contrasts DPhyp with the naive top-down
// memoization competitor of §1 on a mid-size clique (where partition
// generate-and-test hurts most).
func BenchmarkAblationTopDown(b *testing.B) {
	g := workload.Clique(10, workload.DefaultConfig())
	ctx := context.Background()
	for _, alg := range []Algorithm{DPhyp, TopDown} {
		p := NewPlanner(WithAlgorithm(alg), WithPlanCacheSize(0))
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.PlanGraph(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCostModels measures the (small) cost-model influence
// on optimization time: the enumeration dominates, the model does not.
func BenchmarkAblationCostModels(b *testing.B) {
	g := workload.Cycle(12, workload.DefaultConfig())
	ctx := context.Background()
	for _, m := range []CostModel{Cout, NestedLoop, Hash} {
		p := NewPlanner(WithCostModel(m), WithPlanCacheSize(0))
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.PlanGraph(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerSession measures the session machinery itself on a
// mid-size clique: cold enumeration with pooled scratch reuse versus
// plans served from the fingerprint cache — the repeated-traffic path a
// server lives on.
func BenchmarkPlannerSession(b *testing.B) {
	g := workload.Clique(8, workload.DefaultConfig())
	ctx := context.Background()
	b.Run("enumerate-pooled", func(b *testing.B) {
		p := NewPlanner(WithPlanCacheSize(0))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.PlanGraph(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		p := NewPlanner()
		if _, err := p.PlanGraph(ctx, g); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.PlanGraph(ctx, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	// cache-hit-json is the call cmd/planbench's lib-hot workload times:
	// decode-side construction of a fresh Query from the document, then a
	// routed, cached Plan under the serving configuration.
	b.Run("cache-hit-json", func(b *testing.B) {
		p := NewPlanner(WithAlgorithm(SolverAuto), WithBudget(Budget{MaxCsgCmpPairs: 10_000_000}))
		doc := graphJSON(g)
		if _, err := p.PlanJSON(ctx, doc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			q, err := doc.BuildQuery()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemo isolates the memo claim of the unified enumeration
// engine: open-addressing table + flat arena (internal/memo) versus the
// map[bitset.Set]*plan.Node each solver used to carry. The key stream is
// every non-empty subset of a 14-relation universe in Vance–Maier order
// — the exact access pattern of a clique enumeration.
func BenchmarkMemo(b *testing.B) {
	keys := bitset.Subsets(bitset.Full(14))
	leaf := plan.Leaf(0, 100)

	b.Run("insert/map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[string]*plan.Node, 64)
			for _, k := range keys {
				m[k.Key()] = leaf
			}
			if len(m) != len(keys) {
				b.Fatal("bad size")
			}
		}
	})
	b.Run("insert/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var tb memo.Table
			tb.Reset(64)
			for j, k := range keys {
				tb.Put(k, int32(j))
			}
			if tb.Len() != len(keys) {
				b.Fatal("bad size")
			}
		}
	})

	mm := make(map[string]*plan.Node, len(keys))
	var tb memo.Table
	tb.Reset(len(keys))
	for j, k := range keys {
		mm[k.Key()] = leaf
		tb.Put(k, int32(j))
	}
	b.Run("lookup/map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, k := range keys {
				if mm[k.Key()] != nil {
					hits++
				}
			}
			if hits != len(keys) {
				b.Fatal("bad hits")
			}
		}
	})
	b.Run("lookup/engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, k := range keys {
				if _, ok := tb.Get(k); ok {
					hits++
				}
			}
			if hits != len(keys) {
				b.Fatal("bad hits")
			}
		}
	})

	// arena-reset measures the steady-state cycle a pooled engine lives
	// in: clear storage that is already sized, then re-fill it.
	b.Run("arena-reset/map", func(b *testing.B) {
		m := make(map[string]*plan.Node, len(keys))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(m)
			for _, k := range keys {
				m[k.Key()] = leaf
			}
		}
	})
	b.Run("arena-reset/engine", func(b *testing.B) {
		var t2 memo.Table
		t2.Reset(len(keys))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t2.Reset(len(keys))
			for j, k := range keys {
				t2.Put(k, int32(j))
			}
		}
	})

	// deferred-buckets measures the steady state of the pooled
	// deferred-pricing cycle the parallel DPhyp spine runs per query:
	// record pairs into the per-worker pooled buffers, fold the collect
	// barrier, assemble the pooled size buckets, and price every bucket
	// level through the merged barriers. After warmup the whole cycle is
	// allocation-free. Two per-run costs are hoisted out because they are
	// per-run by design, not per-pair: the Stats.WorkerPairs header
	// (deliberately freshly allocated by Engine.Parallel — it escapes
	// into Results) and PriceLevels' goroutine fork/join (pricing runs
	// inline here).
	b.Run("deferred-buckets", func(b *testing.B) {
		g := workload.Star(12, workload.DefaultConfig())
		var recs []dp.PairRec
		if _, _, err := core.Solve(g, core.Options{OnEmit: func(S1, S2 bitset.Set) {
			recs = append(recs, dp.PairRec{S1: S1, S2: S2})
		}}); err != nil {
			b.Fatal(err)
		}
		const workers = 3
		n := g.NumRels()
		e, bld := dp.NewRun(nil, g, nil)
		bld.Init()
		pr := dp.NewParRun(bld, workers)
		wp := e.Stats.WorkerPairs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Reset(n)
			e.Stats.Workers = workers
			e.Stats.WorkerPairs = wp
			bld.Init()
			for _, wb := range pr.Bs {
				wb.ResetPairs()
			}
			pr.Par.StartLevel()
			for j, r := range recs {
				wb := pr.Bs[j%workers]
				if wb.Engine.EmitDeferred(r.S1, r.S2) {
					wb.DeferPair(r.S1, r.S2)
				}
			}
			pr.Par.FinishLevel(memo.LevelCollected)
			buckets := pr.Buckets(n)
			for s := 2; s < len(buckets); s++ {
				if len(buckets[s]) == 0 {
					continue
				}
				pr.Par.StartLevel()
				for j, r := range buckets[s] {
					pr.Bs[j%workers].Engine.BuildDeferred(r.S1, r.S2)
				}
				pr.Par.FinishLevel(memo.LevelPriced)
			}
			if e.Entries() == 0 {
				b.Fatal("no memo entries after pricing")
			}
		}
	})
}

// BenchmarkParallel measures the tentpole of the parallel-enumeration
// work: cold-cache exact planning of the hardest §4 shapes, serial
// engine versus 4 memo workers. CI diffs clique12 against the PR base
// with benchstat (non-gating). On a single-core runner the parallel
// variant shows only the fork/join + merge overhead; the speedup needs
// real cores.
func BenchmarkParallel(b *testing.B) {
	ctx := context.Background()
	cfg := workload.DefaultConfig()
	cases := []struct {
		name string
		g    *Graph
		alg  Algorithm
	}{
		{"clique12", workload.Clique(12, cfg), SolverAuto},
		{"star12", workload.Star(12, cfg), SolverAuto},
	}
	for _, c := range cases {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%s/serial", c.name)
			if par > 1 {
				name = fmt.Sprintf("%s/parallel%d", c.name, par)
			}
			b.Run(name, func(b *testing.B) {
				p := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0), WithParallelism(par))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.PlanGraph(ctx, c.g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNeighborhood isolates the DPhyp neighborhood micro-opt: the
// per-csg N(S,X) computation with and without the incremental
// simple-neighbor union and the reusable candidate buffer, on the
// paper's Figure 2 hypergraph (complex edges force the candidate
// path) and on a plain star.
func BenchmarkNeighborhood(b *testing.B) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"fig2-hyper", hypergraph.PaperExampleGraph()},
		{"star12", workload.Star(12, workload.DefaultConfig())},
	}
	for _, gc := range graphs {
		g := gc.g
		g.Freeze()
		n := g.NumRels()
		var sets []bitset.Set
		for v := 0; v < n; v++ {
			sets = append(sets, bitset.Single(v))
			for _, w := range []int{2, 3} {
				if v+w <= n {
					// Multi-node csgs reach the hypernode-candidate path
					// (and its buffer) on the hypergraph case.
					sets = append(sets, bitset.Range(v, v+w))
				}
			}
		}
		b.Run(gc.name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, S := range sets {
					_ = g.Neighborhood(S, bitset.Below(S.Min()))
				}
			}
		})
		b.Run(gc.name+"/cached", func(b *testing.B) {
			b.ReportAllocs()
			var sc hypergraph.NeighborScratch
			sus := make([]bitset.Set, len(sets))
			for i, S := range sets {
				sus[i] = g.SimpleNeighborUnion(S)
			}
			for i := 0; i < b.N; i++ {
				for j, S := range sets {
					_ = g.NeighborhoodWith(S, bitset.Below(S.Min()), sus[j], &sc)
				}
			}
		})
	}
}
