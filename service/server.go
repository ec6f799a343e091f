package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
)

// errInternal is the opaque body of a 500 after a handler panic; the
// panic itself goes to the log, not to the client.
var errInternal = errors.New("service: internal error")

// Planner is the planning backend a Server serves. *repro.Planner
// implements it; tests substitute gated fakes to make concurrency
// scenarios deterministic.
type Planner interface {
	Plan(ctx context.Context, q *repro.Query, opts ...repro.Option) (*repro.Result, error)
	PlanJSON(ctx context.Context, doc *repro.QueryJSON, opts ...repro.Option) (*repro.Result, error)
	Metrics() repro.PlannerMetrics
}

// Config configures a Server. The zero value is usable: it plans with a
// fresh default repro.Planner, GOMAXPROCS workers, a 64-deep admission
// queue, and a 10s default deadline.
type Config struct {
	// Planner is the planning backend. Nil constructs a default
	// repro.NewPlanner().
	Planner Planner
	// Workers bounds concurrent enumerations. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker; beyond it,
	// requests are rejected with 429. Default 64.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request names
	// none. Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps a request's own timeout_ms. Default 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds a request body. Default 4 MiB.
	MaxBodyBytes int64
	// Logger receives the structured records: one "plan" line per
	// planning request (request id, fingerprint, shape, algorithm,
	// duration, outcome), "http" access lines at Debug, "slow plan"
	// warnings, and errors. Nil is silent.
	Logger *slog.Logger
	// HistoryPath, when set, makes the planning-cost history persistent:
	// the file is loaded at startup as the baseline, and baseline + live
	// metrics are saved every HistoryInterval and again at Shutdown. An
	// unreadable or version-mismatched file disables persistence for the
	// process — the file is never overwritten with partial data — and is
	// reported through Logger.
	HistoryPath string
	// HistoryInterval is the periodic history save cadence when
	// HistoryPath is set. Default 5m.
	HistoryInterval time.Duration
	// SlowPlanThreshold, when positive, upgrades the plan log line to a
	// warning (with phase totals when the request was traced) for every
	// planning request at least this slow.
	SlowPlanThreshold time.Duration
	// TraceSample, when positive, attaches an explain trace to one in
	// every TraceSample planning requests that did not ask for one, so
	// /debug/plans carries phase breakdowns even when no client sends
	// explain=1. 0 disables sampling.
	TraceSample int
	// RingSize bounds the /debug/plans ring of slowest plans. Default
	// 32 (obs.DefaultRingSize).
	RingSize int
	// SnapshotPath, when set (and the backend is a *repro.Planner or
	// anything else implementing its snapshot methods), makes the plan
	// cache persistent: the file is restored at startup — so the first
	// request on a warm fingerprint is a cache hit, not an enumeration —
	// and saved every SnapshotInterval and again at Shutdown. A corrupt
	// or version-mismatched file disables snapshot persistence for the
	// process without overwriting the file, and is reported loudly
	// through Logger.
	SnapshotPath string
	// SnapshotInterval is the periodic plan-cache save cadence when
	// SnapshotPath is set. Default 5m.
	SnapshotInterval time.Duration
	// Overload enables the overload degradation ladder (see ladder.go):
	// under pressure the server tightens plan budgets, then forces
	// greedy-only planning, then sheds with 429 — degrading plan
	// quality before availability. Nil disables the ladder; requests
	// are then never rerouted or shed by pressure.
	Overload *OverloadConfig
}

// Server is the concurrent plan-serving subsystem: it owns the worker
// pool, the request coalescer, and the live metrics, and exposes them
// as an http.Handler. Construct with New, serve Handler(), stop with
// Shutdown.
type Server struct {
	cfg     Config
	planner Planner
	pool    *pool
	co      *coalescer
	met     *metrics
	handler http.Handler

	log       *slog.Logger
	planObs   *obs.PlanMetrics // nil when the backend exposes none
	ring      *obs.SlowRing
	reqSeq    atomic.Uint64 //dp:atomic
	sampleSeq atomic.Uint64 //dp:atomic

	histBase  *obs.History // loaded baseline; immutable after New
	histPath  string       // "" disables persistence
	histSaver *periodicSaver

	snap      cacheSnapshotter // nil when unsupported or disabled
	snapPath  string           // "" disables snapshot persistence
	snapSaver *periodicSaver

	ladder *ladder // nil when Config.Overload is nil

	mu       sync.Mutex
	cond     *sync.Cond
	draining bool
	inflight int
}

// New returns a Server over cfg (see Config for defaults).
func New(cfg Config) *Server {
	if cfg.Planner == nil {
		cfg.Planner = repro.NewPlanner()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.HistoryInterval <= 0 {
		cfg.HistoryInterval = 5 * time.Minute
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 5 * time.Minute
	}
	s := &Server{
		cfg:     cfg,
		planner: cfg.Planner,
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		co:      newCoalescer(),
		met:     newMetrics(),
		ring:    obs.NewSlowRing(cfg.RingSize),
	}
	s.cond = sync.NewCond(&s.mu)
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if po, ok := cfg.Planner.(planObserver); ok {
		s.planObs = po.PlanObs()
	}
	s.histBase = obs.NewHistory()
	if cfg.HistoryPath != "" {
		base, err := obs.LoadHistory(cfg.HistoryPath)
		if err != nil {
			s.log.Error("planning-cost history unreadable; persistence disabled",
				"path", cfg.HistoryPath, "error", err)
		} else {
			s.histBase = base
			s.histPath = cfg.HistoryPath
			s.histSaver = startSaver(cfg.HistoryInterval, func() {
				if err := s.saveHistory(); err != nil {
					s.log.Warn("periodic history save failed", "path", s.histPath, "error", err)
				}
			})
		}
	}
	// The loaded history doubles as the budget router's cold-start
	// prediction source: a restarted server routes WithPlanBudget calls
	// on yesterday's measured costs instead of the static tables.
	if bs, ok := cfg.Planner.(baselineSetter); ok && s.histBase.Len() > 0 {
		bs.SetBaselineHistory(s.histBase)
	}
	if cfg.SnapshotPath != "" {
		if cs, ok := cfg.Planner.(cacheSnapshotter); ok {
			n, err := cs.LoadCacheSnapshot(cfg.SnapshotPath)
			if err != nil {
				// Strict load contract: never overwrite the evidence.
				// The process runs cold and unpersisted; the operator
				// inspects or deletes the file to re-enable.
				s.log.Error("plan-cache snapshot unreadable; snapshot persistence disabled",
					"path", cfg.SnapshotPath, "error", err)
			} else {
				s.log.Info("plan cache restored from snapshot",
					"path", cfg.SnapshotPath, "entries", n)
				s.snap = cs
				s.snapPath = cfg.SnapshotPath
				s.snapSaver = startSaver(cfg.SnapshotInterval, func() {
					if err := s.saveSnapshot(); err != nil {
						s.log.Warn("periodic snapshot save failed", "path", s.snapPath, "error", err)
					}
				})
			}
		} else {
			s.log.Warn("snapshot path set but backend does not support cache snapshots",
				"path", cfg.SnapshotPath)
		}
	}
	if cfg.Overload != nil {
		s.ladder = newLadder(*cfg.Overload, s.pool, nil)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /plan", s.handlePlan)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/plans", s.handleDebugPlans)
	mux.HandleFunc("GET /debug/history", s.handleDebugHistory)
	s.handler = s.instrument(mux)
	return s
}

// Handler returns the server's HTTP handler (all four endpoints, with
// recovery, accounting, and access logging applied).
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the server: new planning requests are refused with
// 503 and /healthz reports draining, while requests already admitted
// run to completion (under their own deadlines). It returns nil once
// the last in-flight request finished, or ctx.Err() if ctx expires
// first — in-flight work is then still running; callers that must stop
// it should also cancel the requests' base context.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Persist the planning-cost history and plan-cache snapshot last, so
	// the files carry the requests that finished during the drain. Saved
	// even when the drain timed out — the dimensional metrics are
	// cumulative and the cache snapshot is a point-in-time copy, so the
	// saves are merely missing the still-running requests.
	s.histSaver.halt()
	s.snapSaver.halt()
	if serr := s.saveHistory(); serr != nil {
		s.log.Error("history save at shutdown failed", "path", s.histPath, "error", serr)
	}
	if serr := s.saveSnapshot(); serr != nil {
		s.log.Error("snapshot save at shutdown failed", "path", s.snapPath, "error", serr)
	}
	return err
}

// Draining reports whether Shutdown has been initiated.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// begin admits one planning request into the in-flight set; it fails
// once draining so Shutdown's wait is race-free.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) end() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// timeoutFor resolves a request's effective deadline.
func (s *Server) timeoutFor(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := msDuration(ms)
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// msDuration converts a wire field in milliseconds to a Duration. It
// saturates at ±292 years, where the product would wrap around int64.
func msDuration(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	return time.Duration(min(max(ms, -limit), limit)) * time.Millisecond
}

// decodeRequest is the prologue of both planning handlers. It evaluates
// the overload ladder before spending any work on the request and sheds
// it with 429 at tier 3. It then reads the body, bounded by
// MaxBodyBytes (413 beyond), and decodes it into req (400 on bad JSON).
// It returns the pressure tier the request was admitted at, and false
// once it has written an error response.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req any) (tier int, ok bool) {
	tier = tierNormal
	if s.ladder != nil {
		tier = s.ladder.current()
		if tier >= tierShed {
			s.ladder.sheds.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, errors.New("service: shedding under overload"))
			return tier, false
		}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading body: %w", err))
		return tier, false
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("service: body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return tier, false
	}
	if err := json.Unmarshal(body, req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: decoding request: %w", err))
		return tier, false
	}
	return tier, true
}

// handlePlan serves POST /plan: decode, coalesce, admit, plan, render.
// The explain=1 query parameter attaches a phase/span trace to the
// planning call and returns it as the response's trace field. Tiers
// below shedding adjust the planning configuration.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		writeError(w, http.StatusServiceUnavailable, errors.New("service: draining"))
		return
	}
	defer s.end()

	var req PlanRequest
	tier, ok := s.decodeRequest(w, r, &req)
	if !ok {
		return
	}
	if err := validateQuery(req.Query); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Tier 1+ tightens the plan budget (imposing one when the request
	// carried none); tier 2 forces greedy-only planning outright. Both
	// rewrites flow into the option key, so degraded requests coalesce
	// — and fill the plan cache — strictly among themselves.
	algorithm := req.Algorithm
	planBudget := msDuration(req.PlanBudgetMS)
	if tier >= tierTighten {
		if db := s.ladder.cfg.DegradedBudget; planBudget <= 0 || planBudget > db {
			planBudget = db
		}
	}
	if tier >= tierGreedy {
		algorithm = "greedy"
	}
	opts, optKey, err := planOptions(algorithm, req.CostModel, req.Budget, planBudget)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Tracing: explicit (explain=1) or sampled (1-in-TraceSample of the
	// remaining requests). Explain requests coalesce in their own
	// population — the key suffix guarantees their leader is traced, so
	// followers inherit a real trace instead of an absent one. Sampled
	// requests keep the plain key: the trace is opportunistic (ring
	// only), and splitting the population would cost extra enumerations.
	ev := r.URL.Query().Get("explain")
	explain := ev == "1" || ev == "true"
	traced := explain
	if !traced && s.cfg.TraceSample > 0 && s.sampleSeq.Add(1)%uint64(s.cfg.TraceSample) == 0 {
		traced = true
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		opts = append(opts, repro.WithExplain(tr))
	}

	// The coalescing key: planning options plus the canonical graph
	// fingerprint (tree documents hash the document instead — their
	// conflict analysis has no graph to fingerprint before planning).
	var key string
	var leaderPlan func(context.Context) (*repro.Result, error)
	if req.Query.Tree == nil {
		q, err := req.Query.BuildQuery()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		key = optKey + "\x00" + q.Graph().Fingerprint()
		if explain {
			key += "\x00explain"
		}
		leaderPlan = func(ctx context.Context) (*repro.Result, error) {
			return s.planner.Plan(ctx, q, opts...)
		}
	} else {
		// Hash a canonical re-marshal of the query document alone:
		// request-level fields (timeout_ms), field order, and whitespace
		// are plan-irrelevant and must not defeat coalescing.
		canon, err := json.Marshal(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: canonicalizing query: %w", err))
			return
		}
		sum := sha256.Sum256(canon)
		key = optKey + "\x00tree:" + hex.EncodeToString(sum[:])
		if explain {
			key += "\x00explain"
		}
		doc := req.Query
		leaderPlan = func(ctx context.Context) (*repro.Result, error) {
			return s.planner.PlanJSON(ctx, doc, opts...)
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()

	// Only the leader takes a worker slot: a thundering herd of one
	// query shape costs one enumeration and one slot, however many
	// requests are waiting on it.
	admitted := func(ctx context.Context) (*repro.Result, error) {
		if err := s.pool.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.pool.release()
		return leaderPlan(ctx)
	}

	start := time.Now()
	var (
		res    *repro.Result
		shared bool
	)
	// A leader that dies of its own context (shorter deadline, vanished
	// client) or a panic must not fail its followers: they re-enter the
	// coalescer, where one of them is elected the next leader and the
	// rest keep waiting — never a herd of direct enumerations. Bounded:
	// each round consumes one dead leader, and healthy outcomes exit.
	for attempt := 0; ; attempt++ {
		res, shared, err = s.co.do(ctx, key, func() (*repro.Result, error) { return admitted(ctx) })
		if err != nil && shared && ctx.Err() == nil && attempt < 8 &&
			(isContextErr(err) || errors.Is(err, errLeaderAborted)) {
			continue
		}
		break
	}
	if err == nil && !finitePlan(res.Plan) {
		err = errNonFinitePlan
	}
	if err != nil {
		s.log.Info("plan",
			"id", requestID(r.Context()),
			"fingerprint", fingerprintOf(key),
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"outcome", "error",
			"error", err.Error())
		s.writePlanError(w, err)
		return
	}
	elapsed := time.Since(start)
	if s.ladder != nil {
		s.ladder.observe(elapsed)
	}
	s.observePlan(requestID(r.Context()), key, res, shared, elapsed)
	resp := planResponse(res, shared, float64(elapsed.Microseconds())/1000)
	resp.PressureTier = tier
	if explain {
		resp.Trace = traceJSON(res.Stats.Trace)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /batch: the batch occupies one worker slot
// and plans sequentially under one deadline. Per-query failures land in
// the matching Results entry; only request-level problems (bad JSON,
// full queue, expired deadline before any work) fail the whole call.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		writeError(w, http.StatusServiceUnavailable, errors.New("service: draining"))
		return
	}
	defer s.end()

	// Batches shed under tier-3 pressure like single requests; the
	// budget-tightening and greedy-forcing tiers do not rewrite batch
	// configuration (a batch already occupies exactly one worker slot,
	// so its marginal pressure is bounded).
	var req BatchRequest
	if _, ok := s.decodeRequest(w, r, &req); !ok {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: batch has no queries"))
		return
	}
	opts, optKey, err := planOptions(req.Algorithm, req.CostModel, req.Budget, msDuration(req.PlanBudgetMS))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.writePlanError(w, err)
		return
	}
	defer s.pool.release()

	out := BatchResponse{Results: make([]BatchItem, len(req.Queries))}
	for i, doc := range req.Queries {
		if err := ctx.Err(); err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			continue
		}
		if err := validateQuery(doc); err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			continue
		}
		start := time.Now()
		res, err := s.planner.PlanJSON(ctx, doc, opts...)
		if err == nil && !finitePlan(res.Plan) {
			err = errNonFinitePlan
		}
		if err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			continue
		}
		elapsed := time.Since(start)
		// Batch items flow into the slow-plan ring and plan log like
		// /plan requests; the item key reuses the /plan coalescing form
		// so the same query yields the same fingerprint on both paths.
		itemKey := optKey
		if res.Graph != nil {
			itemKey += "\x00" + res.Graph.Fingerprint()
		}
		s.observePlan(requestID(r.Context()), itemKey, res, false, elapsed)
		out.Results[i] = BatchItem{PlanResponse: planResponse(res, false, float64(elapsed.Microseconds())/1000)}
	}
	writeJSON(w, http.StatusOK, out)
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	UptimeS  int64  `json:"uptime_s"`
	Inflight int    `json:"inflight"`
	Queued   int64  `json:"queued"`
	Running  int64  `json:"running"`
	Workers  int    `json:"workers"`
	Plans    uint64 `json:"plans"`
	// PressureTier is the overload ladder's current tier; absent when
	// the ladder is disabled (and at tier 0).
	PressureTier int `json:"pressure_tier,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, inflight := s.draining, s.inflight
	s.mu.Unlock()
	queued, running := s.pool.gauges()
	resp := healthzResponse{
		Status:   "ok",
		UptimeS:  int64(time.Since(s.met.start).Seconds()),
		Inflight: inflight,
		Queued:   queued,
		Running:  running,
		Workers:  s.pool.workers(),
		Plans:    s.planner.Metrics().Plans,
	}
	if s.ladder != nil {
		resp.PressureTier = s.ladder.current()
	}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# TYPE dpserved_uptime_seconds gauge\n")
	fmt.Fprintf(w, "dpserved_uptime_seconds %g\n", time.Since(s.met.start).Seconds())

	s.met.writeRequests(w)
	s.met.writeLatency(w)

	queued, running := s.pool.gauges()
	fmt.Fprintf(w, "# TYPE dpserved_workers gauge\ndpserved_workers %d\n", s.pool.workers())
	fmt.Fprintf(w, "# TYPE dpserved_queue_capacity gauge\ndpserved_queue_capacity %d\n", s.pool.queueCap)
	fmt.Fprintf(w, "# TYPE dpserved_queued_requests gauge\ndpserved_queued_requests %d\n", queued)
	fmt.Fprintf(w, "# TYPE dpserved_running_requests gauge\ndpserved_running_requests %d\n", running)
	fmt.Fprintf(w, "# TYPE dpserved_admission_rejections_total counter\ndpserved_admission_rejections_total %d\n", s.pool.rejections.Load())
	fmt.Fprintf(w, "# TYPE dpserved_request_timeouts_total counter\ndpserved_request_timeouts_total %d\n", s.met.timeouts.Load())
	fmt.Fprintf(w, "# TYPE dpserved_handler_panics_total counter\ndpserved_handler_panics_total %d\n", s.met.panics.Load())

	if s.ladder != nil {
		fmt.Fprintf(w, "# TYPE dpserved_pressure_tier gauge\ndpserved_pressure_tier %d\n", s.ladder.current())
		fmt.Fprintf(w, "# TYPE dpserved_pressure_transitions_total counter\n")
		for t := 0; t < numTiers; t++ {
			fmt.Fprintf(w, "dpserved_pressure_transitions_total{tier=\"%d\"} %d\n", t, s.ladder.transitions[t].Load())
		}
		fmt.Fprintf(w, "# TYPE dpserved_pressure_shed_total counter\ndpserved_pressure_shed_total %d\n", s.ladder.sheds.Load())
	}

	fmt.Fprintf(w, "# TYPE dpserved_coalesce_leaders_total counter\ndpserved_coalesce_leaders_total %d\n", s.co.leaders.Load())
	fmt.Fprintf(w, "# TYPE dpserved_coalesced_requests_total counter\ndpserved_coalesced_requests_total %d\n", s.co.coalesced.Load())
	fmt.Fprintf(w, "# TYPE dpserved_coalesce_waiting gauge\ndpserved_coalesce_waiting %d\n", s.co.waiting.Load())

	pm := s.planner.Metrics()
	fmt.Fprintf(w, "# TYPE planner_plans_total counter\nplanner_plans_total %d\n", pm.Plans)
	fmt.Fprintf(w, "# TYPE planner_cache_hits_total counter\nplanner_cache_hits_total %d\n", pm.CacheHits)
	fmt.Fprintf(w, "# TYPE planner_cache_misses_total counter\nplanner_cache_misses_total %d\n", pm.CacheMisses)
	fmt.Fprintf(w, "# TYPE planner_cache_evictions_total counter\nplanner_cache_evictions_total %d\n", pm.CacheEvictions)
	fmt.Fprintf(w, "# TYPE planner_cache_entries gauge\nplanner_cache_entries %d\n", pm.CacheEntries)
	fmt.Fprintf(w, "# TYPE planner_fallbacks_total counter\nplanner_fallbacks_total %d\n", pm.Fallbacks)
	fmt.Fprintf(w, "# TYPE planner_failures_total counter\nplanner_failures_total %d\n", pm.Failures)
	fmt.Fprintf(w, "# TYPE planner_slo_met_total counter\nplanner_slo_met_total %d\n", pm.SLOMet)
	fmt.Fprintf(w, "# TYPE planner_slo_missed_total counter\nplanner_slo_missed_total %d\n", pm.SLOMissed)
	fmt.Fprintf(w, "# TYPE planner_slo_degraded_total counter\nplanner_slo_degraded_total %d\n", pm.SLODegraded)
	writeMemoMetrics(w, pm.PairsEmitted, pm.ArenaReuses, pm.MemoPeakEntries)
	if len(pm.AutoRouted) > 0 {
		algs := make([]string, 0, len(pm.AutoRouted))
		for alg := range pm.AutoRouted {
			algs = append(algs, alg)
		}
		sort.Strings(algs)
		fmt.Fprintf(w, "# TYPE planner_auto_routed_total counter\n")
		for _, alg := range algs {
			fmt.Fprintf(w, "planner_auto_routed_total{algorithm=%q} %d\n", alg, pm.AutoRouted[alg])
		}
	}
	s.writePlanSeconds(w)
}

// writePlanError maps a planning failure to a status code:
//
//	429 queue full (Retry-After: 1)
//	504 the request's deadline expired (queued or mid-enumeration)
//	499 the client went away (nginx's convention; the response is moot)
//	422 the query was understood but could not be planned, or its plan's
//	    estimates overflowed float64 (no JSON form)
func (s *Server) writePlanError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, err)
	case errors.Is(err, errLeaderAborted):
		// Only reachable when the retry budget ran out on a key whose
		// leaders keep panicking.
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}
