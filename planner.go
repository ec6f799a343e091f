package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dp"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shape"
)

// DefaultPlanCacheSize is the capacity of a Planner's plan cache unless
// overridden with WithPlanCacheSize.
const DefaultPlanCacheSize = 256

// Planner is a long-lived planning session: it is constructed once with
// a cost model, conflict rule, and policy (algorithm, enumeration
// Budget, fallback behavior), and is then safe for concurrent use from
// any number of goroutines. It gives a server three things:
//
//   - Cancellation: every Plan* method takes a context.Context that is
//     polled inside the enumeration loops of all algorithms, so hostile
//     or huge queries can be cut off mid-flight.
//   - Budgets: WithBudget caps csg-cmp-pairs and costed plans; when the
//     cap trips, the planner degrades to a Greedy (GOO) plan instead of
//     hanging, recording the downgrade in Stats.FallbackGreedy.
//   - Reuse: DP tables are recycled through an internal pool, and
//     finished plans are cached in a bounded LRU keyed by a canonical
//     graph fingerprint, so repeated traffic over the same query shapes
//     skips enumeration entirely (Stats.CacheHit).
//
// Per-call Options may be passed to the Plan* methods; they are merged
// over the planner's construction-time options. The cache remains
// correct under per-call overrides because its keys include every
// plan-relevant configuration dimension.
type Planner struct {
	base  options
	pool  *memo.Pool
	cache *planCache

	// planObs is the dimensional latency registry: one histogram per
	// shape × algorithm × relation-count bucket. Every successful
	// planning call is observed — cache hits included, because the
	// per-shape cost history answers "what does a request cost", and
	// for cached traffic that cost is the lookup.
	planObs *obs.PlanMetrics

	plans       atomic.Uint64 //dp:atomic
	cacheHits   atomic.Uint64 //dp:atomic
	cacheMisses atomic.Uint64 //dp:atomic
	fallbacks   atomic.Uint64 //dp:atomic
	failures    atomic.Uint64 //dp:atomic

	// Memo-engine accounting, aggregated from the per-run Stats of every
	// enumeration (cache hits excluded — they do no memo work).
	pairsEmitted    atomic.Uint64 //dp:atomic
	arenaReuses     atomic.Uint64 //dp:atomic
	memoPeakEntries atomic.Int64  //dp:atomic

	// routed counts SolverAuto routing decisions per target algorithm
	// (indexed by Algorithm; SolverAuto itself is never a target).
	routed [int(SolverAuto) + 1]atomic.Uint64 //dp:atomic

	// SLO accounting for calls planned under WithPlanBudget: calls that
	// finished inside their budget, calls that overran it, and calls
	// the budget router routed below the topology route (see slo.go).
	sloMet      atomic.Uint64 //dp:atomic
	sloMissed   atomic.Uint64 //dp:atomic
	sloDegraded atomic.Uint64 //dp:atomic

	// histBase is the persisted planning-cost baseline the budget
	// router consults for series the live registry has not warmed up
	// (SetBaselineHistory); nil until a server installs one.
	histBase atomic.Pointer[obs.History]
}

// NewPlanner returns a Planner with the given configuration. With no
// options it plans with DPhyp under the Cout cost model, an unlimited
// budget, Greedy fallback enabled, and a DefaultPlanCacheSize plan
// cache.
func NewPlanner(opts ...Option) *Planner {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	p := &Planner{base: o, pool: &memo.Pool{}, planObs: obs.NewPlanMetrics()}
	p.base.pool = p.pool
	if o.cacheSize > 0 {
		p.cache = newPlanCache(o.cacheSize)
	}
	return p
}

// PlanObs returns the planner's dimensional latency registry: per
// shape × algorithm × relation-count-bucket planning-latency histograms
// and cache-hit counters, fed by every successful planning call. The
// serving layer renders it at /metrics and snapshots it into the
// persistent planning-cost history.
func (p *Planner) PlanObs() *obs.PlanMetrics { return p.planObs }

// observePlan records one successful planning call into the
// dimensional registry. shape is st.Shape when routing classified the
// graph and "unclassified" otherwise (direct algorithm calls skip the
// router), alg the algorithm that actually produced the plan.
func (p *Planner) observePlan(g *Graph, st *Stats, alg Algorithm, d time.Duration) {
	sh := st.Shape
	if sh == "" {
		sh = "unclassified"
	}
	p.planObs.Observe(obs.Key{
		Shape:     sh,
		Algorithm: alg.String(),
		N:         obs.NBucket(g.NumRels()),
	}, d, st.CacheHit)
}

// PlannerMetrics is a snapshot of a Planner's cumulative counters. For
// purely cacheable, error-free traffic, Plans = CacheHits + CacheMisses;
// uncacheable calls (observation hooks, generate-and-test filters, or a
// disabled cache) count toward Plans only, and a cacheable call that
// fails after its lookup counts toward CacheMisses and Failures but not
// Plans.
type PlannerMetrics struct {
	Plans          uint64 // successful planning calls, cache hits included
	CacheHits      uint64 // calls served from the plan cache
	CacheMisses    uint64 // cacheable calls that had to enumerate
	CacheEvictions uint64 // entries displaced by the LRU bound
	CacheEntries   int    // entries currently cached
	Fallbacks      uint64 // Greedy downgrades after budget trips
	Failures       uint64 // calls that returned an error

	// Memo-engine counters, aggregated across every enumeration run the
	// planner performed (cache hits excluded). PairsEmitted is the §2.2
	// effort yardstick summed over the session; ArenaReuses counts runs
	// that started on recycled memo storage (table slots and plan-node
	// arena) instead of allocating fresh; MemoPeakEntries is the largest
	// DP-table occupancy any single run reached.
	PairsEmitted    uint64
	ArenaReuses     uint64
	MemoPeakEntries int

	// ParallelRuns is always 0: every enumeration runs on one goroutine.
	//
	// Deprecated: it counted runs of DPsub's level-parallel mode, which
	// was deleted. The field stays so existing readers compile.
	ParallelRuns uint64

	// AutoRouted counts SolverAuto routing decisions keyed by the
	// algorithm name the topology router picked (e.g. "dphyp"). Nil
	// when no call has been routed.
	AutoRouted map[string]uint64

	// Planning-time SLO counters, bumped only by calls that carried a
	// WithPlanBudget deadline. SLOMet + SLOMissed equals the number of
	// budgeted calls that produced a plan; SLODegraded counts the
	// subset the budget router routed below the topology route.
	SLOMet      uint64
	SLOMissed   uint64
	SLODegraded uint64
}

// Metrics returns a snapshot of the planner's counters. The snapshot is
// not atomic across fields: counters read under concurrent traffic may
// be a few calls apart from one another, but each is individually exact.
func (p *Planner) Metrics() PlannerMetrics {
	m := PlannerMetrics{
		Plans:           p.plans.Load(),
		CacheHits:       p.cacheHits.Load(),
		CacheMisses:     p.cacheMisses.Load(),
		Fallbacks:       p.fallbacks.Load(),
		Failures:        p.failures.Load(),
		PairsEmitted:    p.pairsEmitted.Load(),
		ArenaReuses:     p.arenaReuses.Load(),
		MemoPeakEntries: int(p.memoPeakEntries.Load()),
		SLOMet:          p.sloMet.Load(),
		SLOMissed:       p.sloMissed.Load(),
		SLODegraded:     p.sloDegraded.Load(),
	}
	if p.cache != nil {
		m.CacheEvictions = p.cache.evicted()
		m.CacheEntries = p.cache.len()
	}
	for a := range p.routed {
		if n := p.routed[a].Load(); n > 0 {
			if m.AutoRouted == nil {
				m.AutoRouted = make(map[string]uint64)
			}
			m.AutoRouted[Algorithm(a).String()] = n
		}
	}
	return m
}

// merged returns the planner's options overlaid with per-call options,
// for a call under ctx.
func (p *Planner) merged(ctx context.Context, opts []Option) options {
	o := p.base
	for _, f := range opts {
		f(&o)
	}
	o.pool = p.pool
	o.ctx = ctx
	return o
}

// Plan optimizes an inner-join query. The query is validated and — on
// its first planning — repaired to a connected hypergraph (§2.1); the
// repair is remembered, so planning the same *Query repeatedly (as the
// cache encourages) does not re-add cross edges.
func (p *Planner) Plan(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	if q.err != nil {
		return nil, p.fail(q.err)
	}
	if q.g.NumRels() == 0 {
		return nil, p.fail(fmt.Errorf("repro: query has no relations"))
	}
	q.ensureConnected()
	return p.planGraph(ctx, q.g, p.merged(ctx, opts), nil)
}

// PlanGraph runs the configured algorithm directly on a hypergraph. The
// graph must not be mutated for the duration of the call. Disconnected
// graphs are not repaired, so they fail unless the caller ran
// MakeConnected.
func (p *Planner) PlanGraph(ctx context.Context, g *Graph, opts ...Option) (*Result, error) {
	return p.planGraph(ctx, g, p.merged(ctx, opts), nil)
}

// PlanTree analyzes an operator tree (§5), derives the conflict-
// covering hypergraph, and optimizes it. Analysis of a shared TreeQuery
// is serialized internally, so concurrent PlanTree calls on the same
// query are safe.
func (p *Planner) PlanTree(ctx context.Context, t *TreeQuery, root *Expr, opts ...Option) (*Result, error) {
	o := p.merged(ctx, opts)
	g, filter, err := t.derive(root, o)
	if err != nil {
		return nil, p.fail(err)
	}
	return p.planGraph(ctx, g, o, filter)
}

// BatchError reports the per-query failures of a PlanBatch call that
// could not plan every query. Errs is parallel to the input batch: a
// nil entry means the query at that index planned successfully (its
// Result is in the returned slice), a non-nil entry carries that
// query's own error. errors.Is/As see through to the individual errors
// (e.g. errors.Is(err, ErrBudgetExhausted)).
//
// Queries that were cut short because the batch context was cancelled —
// whether still waiting for a worker or already mid-enumeration — are
// reported as exactly ctx.Err() (identity, not just errors.Is), so
// callers can distinguish "this query is fine, the batch was abandoned"
// from a genuine per-query planning failure with a simple comparison
// (see Cancelled).
type BatchError struct {
	Errs []error
}

// Cancelled reports whether the query at index i failed only because
// the batch context was cancelled (its error is the context's own
// error, not a planning failure). It returns false for out-of-range
// indexes, successful queries, and genuine failures.
func (e *BatchError) Cancelled(i int, ctx context.Context) bool {
	if i < 0 || i >= len(e.Errs) || e.Errs[i] == nil {
		return false
	}
	cerr := ctx.Err()
	return cerr != nil && e.Errs[i] == cerr
}

// Error implements error.
func (e *BatchError) Error() string {
	failed, first := 0, -1
	for i, err := range e.Errs {
		if err != nil {
			failed++
			if first < 0 {
				first = i
			}
		}
	}
	if failed == 0 {
		return "repro: batch error with no failures"
	}
	return fmt.Sprintf("repro: %d of %d batch queries failed (first: query %d: %v)",
		failed, len(e.Errs), first, e.Errs[first])
}

// Unwrap exposes the non-nil per-query errors to errors.Is/errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// PlanBatch optimizes a batch of queries concurrently (bounded by
// GOMAXPROCS workers). results[i] is the plan for qs[i], or nil if that
// query failed. A failing query does not abort the batch: the remaining
// queries still plan, and the per-query errors are collected into a
// *BatchError (so one poisoned query among thousands costs exactly one
// result, not the whole batch). Cancellation of ctx is the exception —
// it stops the batch, and queries cut off by it report ctx's error.
func (p *Planner) PlanBatch(ctx context.Context, qs []*Query, opts ...Option) ([]*Result, error) {
	results := make([]*Result, len(qs))
	if len(qs) == 0 {
		return results, nil
	}
	errs := make([]error, len(qs))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				res, err := p.Plan(ctx, qs[i], opts...)
				// A query interrupted mid-enumeration surfaces the
				// cancellation through whatever layer it reached (a
				// solver's abort, the greedy fallback's wrap, ...).
				// Normalize those entries to the context's own error so
				// a BatchError consumer can tell "cancelled with the
				// batch" apart from "this query itself is broken".
				if cerr := ctx.Err(); err != nil && cerr != nil && errors.Is(err, cerr) {
					err = cerr
				}
				results[i], errs[i] = res, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, &BatchError{Errs: errs}
		}
	}
	return results, nil
}

// planGraph is the planning pipeline behind every Plan* method:
// route → cache → enumerate (with the greedy fallback) → account →
// fill → finish. A cache hit goes from the cache stage straight to
// finish, so hits and misses leave through the same epilogue.
func (p *Planner) planGraph(ctx context.Context, g *Graph, o options, filter dp.Filter) (*Result, error) {
	// A caller that already gave up gets its context error immediately —
	// even a cache hit would be answering nobody.
	if err := ctx.Err(); err != nil {
		return nil, p.fail(err)
	}

	// The explain trace and the latency observation both measure from
	// here: validation above costs nothing, and a cache hit is as real a
	// planning outcome as an enumeration.
	start := time.Now()
	o.explain.Begin()

	// Build the graph's derived indexes up front, under the graph's
	// lock: afterwards the enumeration only reads the graph, which makes
	// concurrent planning over a shared graph safe.
	g.Freeze()
	rt := p.route(g, &o)

	// Observation hooks make a run non-reproducible from the cache (the
	// hook would not fire on a hit), and generate-and-test filters carry
	// per-analysis conflict state the fingerprint cannot see; bypass the
	// cache for both. The key is built in a stack buffer: a hit
	// allocates no key at all, and only a miss copies it into the string
	// the cache stores.
	cacheable := p.cache != nil && filter == nil && o.trace == nil
	var keyBuf [keyBufSize]byte
	var key []byte
	if cacheable {
		var res *Result
		if key, res = p.lookup(keyBuf[:0], g, &o); res != nil {
			res.Graph = g
			return p.finish(res, &rt, o.explain, start), nil
		}
	}

	res, err := p.enumerate(g, o, filter)
	if err != nil {
		return nil, p.fail(err)
	}
	p.account(&res.Stats)
	// The cache entry keeps the routing-agnostic stats (the key is the
	// routed algorithm's, so direct calls may hit it too) and never a
	// trace — a trace is per-request state, and a cached pointer would
	// leak one request's spans into every later hit.
	if cacheable {
		p.cache.add(string(key), plan.Pack(res.Plan), res.Stats, res.Algorithm)
	}
	return p.finish(res, &rt, o.explain, start), nil
}

// routing is the route stage's decision, carried to finish: the shape
// class and algorithm SolverAuto picked, stamped onto the call's Stats,
// and the budgeted call's SLO state.
type routing struct {
	shape string // "" unless SolverAuto routed the call
	alg   Algorithm
	slo   sloState
}

// route is the first stage. It resolves SolverAuto to a concrete
// algorithm, into o.alg. Routing happens before the cache lookup: it is
// a pure function of the (frozen) graph, so a routed entry is
// interchangeable with one planned by naming the same algorithm
// directly. Classification costs one O(V+E) pass, the same order as the
// Fingerprint scan every cached call already pays.
func (p *Planner) route(g *Graph, o *options) routing {
	rt := routing{slo: sloState{budget: o.planBudget}}
	if o.alg != SolverAuto {
		return rt
	}
	span := o.explain.Start(obs.PhaseRoute)
	prof := shape.Classify(g)
	rt.alg = routeAuto(prof)
	if rt.slo.budget > 0 {
		// Budget-aware routing happens before the cache lookup for the
		// same reason SolverAuto resolution does: the key must name the
		// algorithm that actually plans, so a degraded call shares
		// entries with direct greedy/iterdp traffic and never poisons
		// the exact tier's entries. The budget itself stays out of the
		// cache key — it only influences this choice.
		rt.alg, rt.slo.predicted, rt.slo.degraded = p.routeBudget(prof, rt.alg, o)
	}
	o.explain.End(span)
	o.alg = rt.alg
	rt.shape = prof.Class.String()
	p.routed[int(rt.alg)].Add(1)
	return rt
}

// lookup is the cache stage: it appends the call's cache key to buf and
// probes the plan cache, returning the key and the cached Result, or
// nil on a miss.
func (p *Planner) lookup(buf []byte, g *Graph, o *options) ([]byte, *Result) {
	span := o.explain.Start(obs.PhaseCacheLookup)
	key := g.AppendFingerprint(append(appendConfigKey(buf, o), 0))
	res, ok := p.cache.get(key)
	o.explain.End(span)
	if !ok {
		p.cacheMisses.Add(1)
		return key, nil
	}
	p.cacheHits.Add(1)
	return key, res
}

// enumerate runs the routed algorithm. When an exact run trips its
// budget and the call allows it, the planner degrades to GOO and
// charges the aborted pass's work to the result.
func (p *Planner) enumerate(g *Graph, o options, filter dp.Filter) (*Result, error) {
	// IterDP records its own depth-0 spans (one per compression round,
	// final enumeration, recost) — wrapping it in an enumerate span
	// would double-count the whole tier; every other algorithm gets one
	// enumerate span around its run.
	var espan int32 = -1
	if o.alg != IterDP {
		espan = o.explain.Start(obs.PhaseEnumerate)
	}
	pl, st, err := runSolver(g, o, filter)
	o.explain.Annotate(espan, int64(st.CsgCmpPairs), st.TableEntries, 0)
	o.explain.End(espan)
	if err == nil {
		return &Result{Plan: pl, Stats: st, Graph: g, Algorithm: o.alg}, nil
	}
	if o.noFallback || o.alg == Greedy || !errors.Is(err, dp.ErrBudgetExhausted) {
		return nil, err
	}
	// Budget trip: degrade to GOO. The greedy pass keeps the context
	// (cancellation still applies) but runs without a pair budget — it
	// needs only about n² rankings, each an incidence-row walk.
	og := o
	og.alg = Greedy
	og.budget = Budget{}
	og.trace = nil
	fspan := o.explain.Start(obs.PhaseFallback)
	gp, gst, gerr := runSolver(g, og, filter)
	o.explain.Annotate(fspan, int64(gst.CsgCmpPairs), gst.TableEntries, 0)
	o.explain.End(fspan)
	if gerr != nil {
		return nil, fmt.Errorf("repro: greedy fallback after budget trip: %w", gerr)
	}
	// Account for the work the aborted exact pass performed. The
	// occupancy high-water marks keep the exact pass's values when
	// larger — the greedy table holds only ~2n-1 entries, while the
	// aborted enumeration is what actually sized the memo.
	gst.CsgCmpPairs += st.CsgCmpPairs
	gst.CostedPlans += st.CostedPlans
	gst.TableEntries = max(gst.TableEntries, st.TableEntries)
	gst.MemoCapacity = max(gst.MemoCapacity, st.MemoCapacity)
	gst.MemoGrows = max(gst.MemoGrows, st.MemoGrows)
	gst.ArenaNodes = max(gst.ArenaNodes, st.ArenaNodes)
	gst.BudgetExhausted = true
	gst.FallbackGreedy = true
	return &Result{Plan: gp, Stats: gst, Graph: g, Algorithm: Greedy}, nil
}

// account adds one enumeration to the session counters: the greedy
// fallback, total pairs emitted (both passes of a budget-tripped run
// are merged into st), whether the run reused pooled storage, and the
// table-occupancy high-water mark.
func (p *Planner) account(st *Stats) {
	if st.FallbackGreedy {
		p.fallbacks.Add(1)
	}
	p.pairsEmitted.Add(uint64(st.CsgCmpPairs))
	if st.ArenaReused {
		p.arenaReuses.Add(1)
	}
	for {
		peak := p.memoPeakEntries.Load()
		if int64(st.TableEntries) <= peak ||
			p.memoPeakEntries.CompareAndSwap(peak, int64(st.TableEntries)) {
			break
		}
	}
}

// finish is the epilogue of every planned call, hit or miss. It stamps
// the routing decision onto the Stats and attaches the call's own
// explain trace (cached Stats carry none; nil when untraced), then
// records the call in the session counters, the SLO accounting and the
// latency registry.
func (p *Planner) finish(res *Result, rt *routing, explain *obs.Trace, start time.Time) *Result {
	if rt.shape != "" {
		res.Stats.AutoRouted = true
		res.Stats.Shape = rt.shape
		res.Stats.RoutedAlgorithm = rt.alg.String()
	}
	explain.Finish()
	res.Stats.Trace = explain
	p.plans.Add(1)
	elapsed := time.Since(start)
	p.recordSLO(&res.Stats, rt.slo, res.Algorithm, elapsed)
	p.observePlan(res.Graph, &res.Stats, res.Algorithm, elapsed)
	return res
}

func (p *Planner) fail(err error) error {
	p.failures.Add(1)
	return err
}

// keyBufSize is the stack buffer planGraph builds cache keys in: room
// for the key of an 11-relation clique, just under 2 KB. Longer keys
// spill to the heap.
const keyBufSize = 2048

// appendConfigKey appends the configuration half of a cache key to dst:
// every configuration dimension that influences plan choice, so per-call
// option overrides cannot alias cache entries. The budget and fallback
// policy are part of the key because a budget trip caches a Greedy plan
// — which must not be served to a call that could afford the exact
// enumeration (or that asked for a hard error).
//
// The layout, "alg/model/rule/genAndTest/maxPairs:maxPlans/noFallback/
// clusterSize", is persisted in warm-start snapshots and must not change.
func appendConfigKey(dst []byte, o *options) []byte {
	dst = strconv.AppendInt(dst, int64(o.alg), 10)
	dst = append(dst, '/')
	dst = append(dst, o.model.Name()...)
	dst = append(dst, '/')
	dst = append(dst, o.rule.String()...)
	dst = append(dst, '/')
	dst = strconv.AppendBool(dst, o.genAndTest)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(o.budget.MaxCsgCmpPairs), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(o.budget.MaxCostedPlans), 10)
	dst = append(dst, '/')
	dst = strconv.AppendBool(dst, o.noFallback)
	dst = append(dst, '/')
	return strconv.AppendInt(dst, int64(o.clusterSize), 10)
}
