package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/optree"
	"repro/internal/shape"
)

// The production configuration: cmd/dpserved's defaults.
const (
	cacheSize   = 4096
	budgetPairs = 10_000_000
)

// procs is the GOMAXPROCS the process started with: dpserved's default
// enumeration workers per plan and service workers. http-mixed raises
// GOMAXPROCS for the load generator, so the planner takes it from here.
var procs = runtime.GOMAXPROCS(0)

func newPlanner() *repro.Planner {
	return repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithCostModel(repro.Cout),
		repro.WithPlanCacheSize(cacheSize),
		repro.WithBudget(repro.Budget{MaxCsgCmpPairs: budgetPairs}),
		repro.WithParallelism(procs),
	)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// timeSetups runs setup setupReps times, each after a full collection so
// that no set-up pays for its predecessor's garbage, and returns the
// median duration in seconds at reference speed (see calibrate.go).
func timeSetups(setup func() error) (float64, error) {
	d := make([]float64, setupReps)
	for r := range d {
		runtime.GC()
		scale := calibrate()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d[r] = time.Since(t0).Seconds() * scale
	}
	return median(d), nil
}

// liveHeapMB returns the live heap in MB. It collects twice: the second
// collection empties the sync.Pool victim caches (pooled memo engines
// among them) that the first only demotes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// libSpec describes a library workload: a closed loop of callers, each
// planning the pool's documents in order through one shared Planner.
type libSpec struct {
	callers int
	cells   []cell
	count   int  // pool size
	large   bool // LargeConfig documents, checked against largeRef
	// warm makes set-up plan every pool document, so every timed call
	// is a cache hit. Otherwise set-up fills the cache with filler
	// documents, so every timed miss inserts into a full LRU and evicts.
	warm bool
}

var libSpecs = map[string]libSpec{
	"lib-hot": {callers: 2, cells: hotCells, count: 64, warm: true},
	// 8192 documents cycled in order through a 4096-entry LRU: each
	// document's entry is evicted long before the document comes back.
	"lib-cold":  {callers: 1, cells: coldCells, count: 8192},
	"lib-large": {callers: 1, cells: largeCells, count: cacheSize + 64, large: true},
}

// planDoc is one timed call: BuildQuery + Plan, or PlanJSON for a tree
// document.
func planDoc(ctx context.Context, p *repro.Planner, doc *repro.QueryJSON, opts ...repro.Option) (*repro.Result, error) {
	if doc.Tree != nil {
		return p.PlanJSON(ctx, doc, opts...)
	}
	q, err := doc.BuildQuery()
	if err != nil {
		return nil, err
	}
	return p.Plan(ctx, q, opts...)
}

func runLib(name string, spec libSpec, rc runConfig) (*result, error) {
	ctx := context.Background()
	// Unless set-up plans the pool itself, the pool is generated after
	// set-up: every collection during set-up marks the live heap, and
	// lib-large's pool alone holds ~100 MB, which would make setup_s time
	// the benchmark's own documents.
	var pool, warmDocs []item
	var err error
	if spec.warm {
		pool, err = makePool(rc.seed, name, spec.cells, spec.count, spec.large, false)
		warmDocs = pool
	} else {
		warmDocs, err = makePool(rc.seed, "filler", fillerCells, cacheSize, false, false)
	}
	if err != nil {
		return nil, err
	}

	// Set-up: planner construction plus cache warm, over a fresh planner
	// each time; the last one serves the windows.
	var p *repro.Planner
	setup, err := timeSetups(func() error {
		p = newPlanner()
		for _, it := range warmDocs {
			if _, err := planDoc(ctx, p, it.doc); err != nil {
				return fmt.Errorf("set-up: %v: %w", it.cell, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if pool == nil {
		if pool, err = makePool(rc.seed, name, spec.cells, spec.count, spec.large, false); err != nil {
			return nil, err
		}
	}

	ref := exactRef
	if spec.large {
		ref = largeRef
	}
	corpus, err := makePool(qualitySeed, name, spec.cells, verifyCount, spec.large, false)
	if err != nil {
		return nil, err
	}
	g := newGate(pool[:verifyCount], corpus, ref)
	res := &result{workload: name}
	verify := func() {
		ratios, fails := g.run(func(it item) (planOut, error) {
			r, err := planDoc(ctx, p, it.doc)
			if err != nil {
				return planOut{}, err
			}
			return libPlanOut(r), nil
		})
		res.attempted += len(g.items)
		res.fail(fails...)
		res.ratios = ratios
	}

	// A traced run allocates its span buffers and probes before the
	// untraced window: the live heap sets the collector's pace, so both
	// windows must run over the same heap for the overhead to be the
	// tracing's own.
	var tr *tracing
	if rc.traced {
		tr = &tracing{workload: name, bufs: make([]*spanBuf, spec.callers+1)}
		for c := range tr.bufs {
			tr.bufs[c] = newSpanBuf(spanCap / len(tr.bufs))
		}
		if tr.probes, err = probePool(pool, tr.bufs[spec.callers], name); err != nil {
			return nil, err
		}
	}

	d := rc.window()
	// The traced window continues where the untraced one stopped, so
	// neither replans a document the other left in the cache.
	var cursor atomic.Int64
	w := libWindow(ctx, p, pool, &cursor, spec.callers, d, nil)
	res.attempted += w.calls
	res.failed += w.errs
	res.speed = w.speed
	verify()

	lat := merged(w.lat...)
	v := map[string]float64{
		"setup_s":         setup,
		"plan_p50_us":     quantile(lat, 0.5),
		"plan_p99_us":     quantile(lat, 0.99),
		"plans_per_s":     float64(w.calls) / w.scaled.Seconds(),
		"plan_cost_ratio": geomean(res.ratios),
		"heap_live_mb":    w.heapMB,
	}
	n := map[string]int{
		"setup_s": setupReps, "plan_p50_us": w.calls, "plan_p99_us": w.calls, "plans_per_s": w.calls,
		"plan_cost_ratio": len(res.ratios), "heap_live_mb": 1,
	}
	res.endToEnd = report(endToEnd, v, n)
	if !rc.traced {
		return res, nil
	}

	// The gate planned the verified sample; a window still inside it
	// would find those documents cached.
	if cursor.Load() < int64(verifyCount) {
		cursor.Store(int64(verifyCount))
	}
	tw := libWindow(ctx, p, pool, &cursor, spec.callers, d, tr)
	res.attempted += tw.calls
	res.failed += tw.errs
	verify()

	lv := map[string]float64{}
	tw.layers.values(lv)
	counterMetrics(lv, tw.metrics)
	lv["repro.allocs_per_plan"] = float64(w.mallocs) / float64(max(w.calls, 1))
	lv["repro.bytes_per_plan"] = float64(w.bytes) / float64(max(w.calls, 1))
	tracedRate := float64(tw.calls) / tw.scaled.Seconds()
	lv["obs.trace_overhead_pct"] = 100 * (v["plans_per_s"] - tracedRate) / v["plans_per_s"]
	res.perLayer = report(perLayer, lv, nil)
	for i := range res.perLayer {
		res.perLayer[i].Samples = tw.calls
	}
	res.layers = tw.layers
	res.layerCheck = []string{"repro", "hypergraph", "shape"}
	res.spans = tr.bufs
	res.delta = tw.metrics
	return res, nil
}

// tracing switches a window to traced calls.
type tracing struct {
	workload string
	bufs     []*spanBuf // one per caller, then one for the probes
	probes   []probes   // per pool document
}

// libOut is what a window measured.
type libOut struct {
	calls, errs int
	scaled      time.Duration // the window's duration at reference speed
	speed       float64       // median scale factor to reference speed
	lat         []*reservoir  // latencies at reference speed, µs
	heapMB      float64
	mallocs     uint64
	bytes       uint64
	metrics     repro.PlannerMetrics // counter deltas over the window
	layers      *layerStats          // traced windows only
}

// libWindow runs callers closed-loop over the pool for d, in slices
// (see sliced), and then measures the live heap. Callers share the
// cursor next, so the pool is planned in order.
func libWindow(ctx context.Context, p *repro.Planner, pool []item, next *atomic.Int64, callers int, d time.Duration, tr *tracing) *libOut {
	out := &libOut{lat: make([]*reservoir, callers)}
	stats := make([]*layerStats, callers)
	calls := make([]int, callers)
	errs := make([]int, callers)
	for c := range callers {
		out.lat[c] = newReservoir(1<<14, uint64(c)+1)
		stats[c] = newLayerStats()
	}
	m0 := p.Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	out.scaled, out.speed = sliced(d, func(deadline time.Time, scale float64) {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tr != nil {
					n, e := tracedCalls(ctx, p, pool, next, deadline, start, scale, out.lat[c], stats[c], tr.bufs[c], tr)
					calls[c] += n
					errs[c] += e
					return
				}
				for {
					i := int(next.Add(1)-1) % len(pool)
					t0 := time.Now()
					_, err := planDoc(ctx, p, pool[i].doc)
					t1 := time.Now()
					out.lat[c].add(float64(t1.Sub(t0)) / 1e3 * scale)
					calls[c]++
					if err != nil {
						errs[c]++
					}
					if t1.After(deadline) {
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.heapMB = liveHeapMB()
	out.metrics = delta(m0, p.Metrics())
	for c := range callers {
		out.calls += calls[c]
		out.errs += errs[c]
	}
	if tr != nil {
		out.layers = newLayerStats()
		for _, s := range stats {
			out.layers.merge(s)
		}
	}
	return out
}

// tracedCalls is one caller's traced loop. Every call carries
// WithExplain, and the benchmark times BuildQuery and Plan/PlanJSON
// around it. The layers the planner reaches without an explain span of
// their own take their time from the document's probes (see probePool).
// Only the call latencies are scaled to reference speed; the layer
// times are as measured. It returns the calls made and the errors.
func tracedCalls(ctx context.Context, p *repro.Planner, pool []item, next *atomic.Int64, deadline, start time.Time, scale float64,
	lat *reservoir, ls *layerStats, buf *spanBuf, tr *tracing) (calls, errs int) {
	trace := &obs.Trace{}
	explain := repro.WithExplain(trace)
	xs := make([]xspan, 0, obs.MaxSpans)
	for {
		seq := next.Add(1) - 1
		i := int(seq) % len(pool)
		tree := pool[i].doc.Tree != nil
		var (
			res *repro.Result
			err error
		)
		t0 := time.Now()
		tb := t0
		if tree {
			res, err = p.PlanJSON(ctx, pool[i].doc, explain)
		} else {
			var q *repro.Query
			if q, err = pool[i].doc.BuildQuery(); err == nil {
				tb = time.Now()
				res, err = p.Plan(ctx, q, explain)
			}
		}
		t1 := time.Now()
		lat.add(float64(t1.Sub(t0)) / 1e3 * scale)
		calls++
		if err != nil {
			errs++
		} else {
			pr := tr.probes[i]
			ct := libTrace(trace, &res.Stats, xs[:0])
			rec := buf.request(tr.workload, seq, 3+len(ct.spans))
			at := func(t time.Time) time.Duration { return t.Sub(start) }
			call := rec.add("call", -1, at(t0), at(t1))
			name := "repro.PlanJSON"
			if !tree {
				name = "repro.Plan"
				rec.add("repro.BuildQuery", call, at(t0), at(tb))
				ls.add("repro.build_us", float64(tb.Sub(t0))/1e3)
			}
			planSpan := rec.add(name, call, at(tb), at(t1))
			planSelf := t1.Sub(tb) - ls.explain(ct, pr, rec, planSpan, at(t1))
			ls.add("repro.self_us", float64(planSelf)/1e3)
			// Freeze and, for trees, the conflict analysis run inside
			// Plan/PlanJSON outside every explain span.
			moved := min(pr.freeze, planSelf)
			ls.self["hypergraph"] += moved
			planSelf -= moved
			if tree {
				moved = min(pr.analyze, planSelf)
				ls.self["optree"] += moved
				planSelf -= moved
				ls.add("optree.analyze_us", float64(pr.analyze)/1e3)
			}
			ls.self["repro"] += planSelf + tb.Sub(t0) // BuildQuery is repro's too
			ls.calls++
			ls.callT += t1.Sub(t0)
			ls.add("hypergraph.freeze_ns", float64(pr.freeze))
			ls.add("hypergraph.fingerprint_ns", float64(pr.fingerprint))
			ls.add("shape.classify_ns", float64(pr.classify))
		}
		if t1.After(deadline) {
			return calls, errs
		}
	}
}

// probeReps bounds the probe calls per pool: small pools are probed
// repeatedly and averaged.
const probeReps = 4096

// probePool times, for every pool document, the layers a planning call
// reaches without an explain span: optree.Analyze (tree documents),
// Freeze, Fingerprint and Classify, each on a fresh copy of the
// document's graph. It runs before the traced window, so the probes
// cost the window nothing; the traced calls charge each document's mean
// probe times to those layers.
func probePool(pool []item, buf *spanBuf, workload string) ([]probes, error) {
	reps := max(1, probeReps/len(pool))
	out := make([]probes, len(pool))
	start := time.Now()
	for i, it := range pool {
		for r := range reps {
			pr, err := probe(it)
			if err != nil {
				return nil, fmt.Errorf("probe %v: %w", it.cell, err)
			}
			out[i].analyze += pr.analyze / time.Duration(reps)
			out[i].freeze += pr.freeze / time.Duration(reps)
			out[i].fingerprint += pr.fingerprint / time.Duration(reps)
			out[i].classify += pr.classify / time.Duration(reps)
			if r == 0 {
				rec := buf.request(workload, int64(-1-i), 1+pr.n)
				root := rec.add("probe", -1, pr.marks[0].t0.Sub(start), pr.marks[pr.n-1].t1.Sub(start))
				for _, m := range pr.marks[:pr.n] {
					rec.add(m.name, root, m.t0.Sub(start), m.t1.Sub(start))
				}
			}
		}
	}
	return out, nil
}

// probe times the probed layers once on a fresh copy of it's graph.
func probe(it item) (pr probes, err error) {
	var g *repro.Graph
	if it.doc.Tree != nil {
		root, rels, err := buildTree(it.doc)
		if err != nil {
			return pr, err
		}
		var tree *optree.Tree
		pr.analyze = pr.mark("optree.Analyze", func() { tree, err = optree.Analyze(root, rels, optree.Conservative) })
		if err != nil {
			return pr, err
		}
		g = tree.Hypergraph(optree.TESEdges)
	} else {
		q, err := it.doc.BuildQuery()
		if err != nil {
			return pr, err
		}
		g = q.Graph()
	}
	pr.freeze = pr.mark("hypergraph.Freeze", g.Freeze)
	pr.fingerprint = pr.mark("hypergraph.Fingerprint", func() { _ = g.Fingerprint() })
	pr.classify = pr.mark("shape.Classify", func() { _ = shape.Classify(g) })
	return pr, nil
}

// counterMetrics derives the per-layer shares from the planner's counter
// growth over a traced window.
func counterMetrics(lv map[string]float64, dm repro.PlannerMetrics) {
	plans := float64(dm.Plans)
	lv["repro.cache_hit_ratio"] = ratio(float64(dm.CacheHits), plans)
	lv["repro.fallback_ratio"] = ratio(float64(dm.Fallbacks), plans)
	for _, alg := range routedAlgs {
		lv["repro.routed."+alg] = ratio(float64(dm.AutoRouted[alg]), plans)
	}
	lv["memo.parallel_ratio"] = ratio(float64(dm.ParallelRuns), float64(dm.CacheMisses))
	lv["memo.arena_reuse_ratio"] = ratio(float64(dm.ArenaReuses), float64(dm.CacheMisses))
}

// delta returns the counter growth from a to b.
func delta(a, b repro.PlannerMetrics) repro.PlannerMetrics {
	d := repro.PlannerMetrics{
		Plans:        b.Plans - a.Plans,
		CacheHits:    b.CacheHits - a.CacheHits,
		CacheMisses:  b.CacheMisses - a.CacheMisses,
		Fallbacks:    b.Fallbacks - a.Fallbacks,
		Failures:     b.Failures - a.Failures,
		PairsEmitted: b.PairsEmitted - a.PairsEmitted,
		ArenaReuses:  b.ArenaReuses - a.ArenaReuses,
		ParallelRuns: b.ParallelRuns - a.ParallelRuns,
		AutoRouted:   map[string]uint64{},
	}
	for alg, n := range b.AutoRouted {
		d.AutoRouted[alg] = n - a.AutoRouted[alg]
	}
	return d
}
