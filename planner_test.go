package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dpccp"
	"repro/internal/workload"
)

// cliqueQuery builds an n-relation clique as a public-API Query so the
// planner tests exercise the same entry points a server would.
func cliqueQuery(n int) *Query {
	q := NewQuery()
	ids := make([]RelID, n)
	for i := range ids {
		ids[i] = q.Relation(fmt.Sprintf("R%d", i), float64(100+i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			q.Join(ids[i], ids[j], 0.1)
		}
	}
	return q
}

// TestPlannerConcurrentUse hammers one shared Planner — and shared
// Query/TreeQuery/Graph instances — from many goroutines. Run under
// -race this is the concurrency-safety proof for the session API; the
// cost assertions additionally prove that concurrent planning returns
// the same optimum as sequential planning.
func TestPlannerConcurrentUse(t *testing.T) {
	p := NewPlanner()
	ctx := context.Background()

	sharedQ := tpchish(t)
	sharedG := workload.Clique(7, workload.DefaultConfig())
	sharedT := NewTreeQuery()
	f := sharedT.Table("fact", 1_000_000)
	d1 := sharedT.Table("dim1", 1000)
	d2 := sharedT.Table("dim2", 500)
	expr := f.Join(d1, 0.001).AntiJoin(d2, 0.002)

	wantQ, err := p.Plan(ctx, sharedQ)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := p.PlanGraph(ctx, sharedG)
	if err != nil {
		t.Fatal(err)
	}
	wantT, err := p.PlanTree(ctx, sharedT, expr)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				switch (seed + j) % 4 {
				case 0:
					res, err := p.Plan(ctx, sharedQ)
					if err != nil {
						errs <- err
						return
					}
					if res.Cost() != wantQ.Cost() {
						errs <- fmt.Errorf("shared query cost %g != %g", res.Cost(), wantQ.Cost())
						return
					}
				case 1:
					res, err := p.PlanGraph(ctx, sharedG)
					if err != nil {
						errs <- err
						return
					}
					if res.Cost() != wantG.Cost() {
						errs <- fmt.Errorf("shared graph cost %g != %g", res.Cost(), wantG.Cost())
						return
					}
				case 2:
					res, err := p.PlanTree(ctx, sharedT, expr)
					if err != nil {
						errs <- err
						return
					}
					if res.Cost() != wantT.Cost() {
						errs <- fmt.Errorf("shared tree cost %g != %g", res.Cost(), wantT.Cost())
						return
					}
				case 3:
					// Fresh per-goroutine query: exercises the enumeration
					// (cache miss on first plan per shape) and the pool.
					res, err := p.Plan(ctx, cliqueQuery(5+seed%3))
					if err != nil {
						errs <- err
						return
					}
					if err := res.Plan.Validate(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := p.Metrics(); m.Plans == 0 || m.CacheHits == 0 {
		t.Errorf("metrics not accumulating: %+v", m)
	}
}

// TestPlanCancellation asserts that Plan returns ctx.Err() promptly when
// the context is cancelled mid-enumeration, for every exact algorithm's
// enumeration loop. The 16-relation clique takes many seconds to
// enumerate exhaustively; the deadline fires after a few milliseconds
// and the assertion gives each algorithm a generous-but-bounded window
// to notice.
func TestPlanCancellation(t *testing.T) {
	for _, alg := range []Algorithm{DPhyp, DPsize, DPsub, DPccp, TopDown} {
		t.Run(alg.String(), func(t *testing.T) {
			q := cliqueQuery(16)
			// Fresh cache-less planner: a cache hit would skip enumeration.
			p := NewPlanner(WithAlgorithm(alg), WithPlanCacheSize(0))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := p.Plan(ctx, q)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 3*time.Second {
				t.Errorf("cancellation took %v; the enumeration loop is not polling", elapsed)
			}
		})
	}

	// A context cancelled before the call must fail before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPlanner().Plan(ctx, cliqueQuery(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPlanBudgetFallback asserts the adaptive downgrade: exceeding the
// enumeration budget yields a valid Greedy plan with the fallback
// recorded in Stats.
func TestPlanBudgetFallback(t *testing.T) {
	p := NewPlanner(WithBudget(Budget{MaxCsgCmpPairs: 20}))
	res, err := p.Plan(context.Background(), cliqueQuery(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BudgetExhausted || !res.Stats.FallbackGreedy {
		t.Errorf("fallback not recorded: %+v", res.Stats)
	}
	if res.Algorithm != Greedy {
		t.Errorf("Algorithm = %v, want Greedy", res.Algorithm)
	}
	if res.Plan.Relations() != 10 {
		t.Errorf("greedy fallback plan covers %d relations, want 10", res.Plan.Relations())
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
	// The exact pass's partial work is accounted for on top of greedy's
	// own n-1 pair emissions.
	if res.Stats.CsgCmpPairs < 20+9 {
		t.Errorf("stats lost the aborted pass: pairs = %d", res.Stats.CsgCmpPairs)
	}
	if m := p.Metrics(); m.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", m.Fallbacks)
	}

	// The costed-plans budget trips the same path.
	res, err = NewPlanner(WithBudget(Budget{MaxCostedPlans: 15})).Plan(context.Background(), cliqueQuery(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FallbackGreedy {
		t.Error("MaxCostedPlans trip must fall back to greedy")
	}

	// Without the fallback the budget trip is a hard error.
	_, err = NewPlanner(WithBudget(Budget{MaxCsgCmpPairs: 20}), WithoutGreedyFallback()).
		Plan(context.Background(), cliqueQuery(10))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}

	// A budget wide enough for the full enumeration must not trip.
	res, err = NewPlanner(WithBudget(Budget{MaxCsgCmpPairs: 1 << 20})).Plan(context.Background(), cliqueQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FallbackGreedy || res.Algorithm != DPhyp {
		t.Errorf("unexpected fallback under a sufficient budget: %+v", res.Stats)
	}
}

// TestPlanCache covers hit semantics, clone isolation, and the LRU
// bound.
func TestPlanCache(t *testing.T) {
	p := NewPlanner()
	ctx := context.Background()

	q := tpchish(t)
	first, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit {
		t.Error("first plan cannot be a cache hit")
	}
	second, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Error("second plan of the same shape must hit the cache")
	}
	if second.Cost() != first.Cost() || !second.Plan.Equal(first.Plan) {
		t.Error("cached plan differs from the enumerated one")
	}
	// Stats of the original run are preserved on hits (so effort
	// reporting stays meaningful), only CacheHit differs.
	if second.Stats.CsgCmpPairs != first.Stats.CsgCmpPairs {
		t.Errorf("cache hit stats pairs = %d, want %d", second.Stats.CsgCmpPairs, first.Stats.CsgCmpPairs)
	}

	// Clone isolation: corrupting a returned plan must not leak into the
	// cache or other callers.
	second.Plan.Cost = -1
	second.Plan.Edges = append(second.Plan.Edges, 999)
	third, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Plan.Cost == -1 || third.Cost() != first.Cost() {
		t.Error("cache entry was corrupted through a returned plan")
	}

	// Two structurally identical queries share one cache entry; a
	// different algorithm is a different entry.
	if res, err := p.Plan(ctx, tpchish(t)); err != nil || !res.Stats.CacheHit {
		t.Errorf("identical shape from a fresh Query must hit (err=%v)", err)
	}
	if res, err := p.Plan(ctx, tpchish(t), WithAlgorithm(DPsize)); err != nil || res.Stats.CacheHit {
		t.Errorf("per-call algorithm override must not alias the cache (err=%v)", err)
	}

	// A Greedy plan cached under a tight budget must not be served to a
	// call that can afford the exact enumeration: the budget is part of
	// the cache key.
	bp := NewPlanner(WithBudget(Budget{MaxCsgCmpPairs: 20}))
	tripped, err := bp.Plan(ctx, cliqueQuery(8))
	if err != nil || !tripped.Stats.FallbackGreedy {
		t.Fatalf("budget trip expected (err=%v)", err)
	}
	exact, err := bp.Plan(ctx, cliqueQuery(8), WithBudget(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.CacheHit || exact.Algorithm != DPhyp {
		t.Errorf("unlimited-budget call aliased the cached greedy plan: %+v", exact.Stats)
	}

	// The LRU stays bounded.
	small := NewPlanner(WithPlanCacheSize(2))
	for n := 3; n <= 7; n++ {
		if _, err := small.Plan(ctx, cliqueQuery(n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := small.cache.len(); got > 2 {
		t.Errorf("cache holds %d entries, cap 2", got)
	}
	// An evicted shape re-plans fine.
	if res, err := small.Plan(ctx, cliqueQuery(3)); err != nil || res.Stats.CacheHit {
		t.Errorf("evicted shape must re-enumerate (err=%v, hit=%v)", err, res != nil && res.Stats.CacheHit)
	}

	// Observation hooks bypass the cache: the trace must be recorded
	// even when the shape is cached.
	var tr Trace
	if res, err := p.Plan(ctx, tpchish(t), WithTrace(&tr)); err != nil || res.Stats.CacheHit {
		t.Fatalf("traced plan must bypass the cache (err=%v)", err)
	}
	if len(tr.Steps) == 0 {
		t.Error("trace not recorded on a cached shape")
	}
}

// TestOptimizeIdempotent: planning a disconnected query repairs the
// graph exactly once, so repeated Plan calls on one *Query (and hence
// cached replans) do not accrete cross edges.
func TestOptimizeIdempotent(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	a := q.Relation("A", 10)
	b := q.Relation("B", 20)
	q.Relation("C", 30)
	q.Join(a, b, 0.1)

	first, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	edgesAfterFirst := q.Graph().NumEdges()
	for i := 0; i < 3; i++ {
		res, err := p.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost() != first.Cost() {
			t.Errorf("call %d: cost %g != %g", i+2, res.Cost(), first.Cost())
		}
	}
	if got := q.Graph().NumEdges(); got != edgesAfterFirst {
		t.Errorf("repeated Plan re-added cross edges: %d -> %d edges", edgesAfterFirst, got)
	}
}

// TestPlanBatch checks the concurrent batch entry point.
func TestPlanBatch(t *testing.T) {
	p := NewPlanner()
	ctx := context.Background()

	qs := make([]*Query, 12)
	for i := range qs {
		qs[i] = cliqueQuery(3 + i%4)
	}
	results, err := p.PlanBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		want, err := p.Plan(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost() != want.Cost() {
			t.Errorf("batch result %d cost %g != %g", i, res.Cost(), want.Cost())
		}
	}

	// A failing query surfaces its error without suppressing the rest
	// of the batch (see TestPlanBatchPoisonedQuery for the full check).
	bad := NewQuery() // no relations
	if _, err := p.PlanBatch(ctx, []*Query{cliqueQuery(3), bad}); err == nil {
		t.Error("batch with an invalid query must fail")
	}

	if res, err := p.PlanBatch(ctx, nil); err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %v", res, err)
	}
}

// TestPlanBatchPoisonedQuery: one poisoned query among many must fail
// alone — every healthy query still returns its plan, and the
// *BatchError pinpoints exactly the poisoned index.
func TestPlanBatchPoisonedQuery(t *testing.T) {
	p := NewPlanner()
	ctx := context.Background()

	const poisoned = 7
	qs := make([]*Query, 20)
	for i := range qs {
		if i == poisoned {
			qs[i] = NewQuery() // no relations: fails validation
			continue
		}
		qs[i] = cliqueQuery(3 + i%4)
	}

	results, err := p.PlanBatch(ctx, qs)
	if err == nil {
		t.Fatal("batch with a poisoned query must return an error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if len(be.Errs) != len(qs) {
		t.Fatalf("BatchError has %d entries for %d queries", len(be.Errs), len(qs))
	}
	for i, res := range results {
		if i == poisoned {
			if res != nil || be.Errs[i] == nil {
				t.Errorf("poisoned query %d: result %v, err %v", i, res, be.Errs[i])
			}
			continue
		}
		if res == nil || be.Errs[i] != nil {
			t.Errorf("healthy query %d was dragged down: result %v, err %v", i, res, be.Errs[i])
			continue
		}
		want, werr := p.Plan(ctx, qs[i])
		if werr != nil {
			t.Fatal(werr)
		}
		if res.Cost() != want.Cost() {
			t.Errorf("query %d: batch cost %g != direct cost %g", i, res.Cost(), want.Cost())
		}
	}

	// Context cancellation still stops the whole batch.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.PlanBatch(cctx, qs[:3]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: got %v, want context.Canceled", err)
	}
}

// TestPlanBatchDPccpHyperedge: a query with a complex edge, which DPccp
// does not accept, fails as its own BatchError entry. It must not panic
// inside the batch's worker goroutine, where no caller could recover.
func TestPlanBatchDPccpHyperedge(t *testing.T) {
	hyper := NewQuery()
	a, b, c := hyper.Relation("a", 10), hyper.Relation("b", 20), hyper.Relation("c", 30)
	hyper.Join(a, b, 0.1)
	hyper.ComplexJoin([]RelID{a, b}, []RelID{c}, 0.1)
	qs := []*Query{cliqueQuery(4), hyper}

	results, err := NewPlanner(WithAlgorithm(DPccp)).PlanBatch(context.Background(), qs)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %v, want *BatchError", err)
	}
	if results[0] == nil || be.Errs[0] != nil {
		t.Errorf("simple query 0: result %v, err %v", results[0], be.Errs[0])
	}
	if results[1] != nil || !errors.Is(be.Errs[1], dpccp.ErrHyperedge) {
		t.Errorf("hyperedge query 1: result %v, err %v, want dpccp.ErrHyperedge", results[1], be.Errs[1])
	}
}

// TestBudgetedTreeQuery: budgets and fallback work through the tree
// (conflict analysis) path, preserving non-inner operators.
func TestBudgetedTreeQuery(t *testing.T) {
	build := func() (*TreeQuery, *Expr) {
		tq := NewTreeQuery()
		e := tq.Table("R0", 1000)
		for i := 1; i < 10; i++ {
			e = e.Join(tq.Table(fmt.Sprintf("R%d", i), float64(100*i)), 0.01)
		}
		return tq, e
	}
	tq, expr := build()
	res, err := NewPlanner(WithBudget(Budget{MaxCsgCmpPairs: 5})).
		PlanTree(context.Background(), tq, expr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FallbackGreedy {
		t.Error("tree query budget trip must fall back to greedy")
	}
	if res.Plan.Relations() != 10 {
		t.Errorf("fallback plan covers %d relations", res.Plan.Relations())
	}
}

// TestParallelSmallQueriesStaySerial: WithParallelism is a deprecated
// no-op, so a planner given 4 workers plans each solver's query exactly
// as a planner without the option, with the same plan and work
// counters, and PlannerMetrics.ParallelRuns stays 0.
func TestParallelSmallQueriesStaySerial(t *testing.T) {
	cfg := workload.DefaultConfig()
	cases := []struct {
		name string
		alg  Algorithm
		g    *Graph
	}{
		{"dphyp-star8", DPhyp, workload.Star(8, cfg)},
		{"dpsize-chain12", DPsize, workload.Chain(12, cfg)},
		{"dpccp-cycle12", DPccp, workload.Cycle(12, cfg)},
		{"topdown-clique10", TopDown, workload.Clique(10, cfg)},
		{"greedy-chain30", Greedy, workload.Chain(30, cfg)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			p := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0), WithParallelism(4))
			res, err := p.PlanGraph(ctx, c.g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0)).PlanGraph(ctx, c.g)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := res.Plan.String(), want.Plan.String(); got != w {
				t.Errorf("plan with WithParallelism(4):\n%s\nwithout:\n%s", got, w)
			}
			if res.Stats.CsgCmpPairs != want.Stats.CsgCmpPairs || res.Stats.CostedPlans != want.Stats.CostedPlans {
				t.Errorf("pairs %d, costed %d; without the option %d, %d", res.Stats.CsgCmpPairs,
					res.Stats.CostedPlans, want.Stats.CsgCmpPairs, want.Stats.CostedPlans)
			}
			if m := p.Metrics(); m.ParallelRuns != 0 {
				t.Errorf("ParallelRuns = %d, want 0", m.ParallelRuns)
			}
		})
	}
}
