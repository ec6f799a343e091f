// Command dpserved is the plan-serving daemon: it wraps a repro.Planner
// in the service package's HTTP API and runs it until SIGINT/SIGTERM,
// then drains gracefully.
//
// Usage:
//
//	dpserved                              # serve on :8080 with defaults
//	dpserved -addr :9090 -workers 8 -queue 256  # 8 plans at once, each on one goroutine
//	dpserved -solver auto -cost physical  # planner defaults for all requests
//	dpserved -budget-pairs 5000000        # budget + greedy fallback per plan
//	dpserved -debug-addr localhost:6060   # pprof + debug surfaces, off the main port
//	dpserved -history-file plans.json     # persistent planning-cost history
//	dpserved -snapshot-file cache.json    # warm-start plan-cache snapshot
//	dpserved -overload-ladder -target-p99 100ms  # degrade before shedding under load
//	dpserved -slow-plan 100ms             # warn (with phase totals) on slow plans
//
// Quickstart:
//
//	dpserved -addr :8080 &
//	querygen -family star -n 8 | jq '{query: .}' \
//	    | curl -sS -d @- localhost:8080/plan | jq .cost
//	querygen -family star -n 8 | jq '{query: .}' \
//	    | curl -sS -d @- 'localhost:8080/plan?explain=1' | jq .trace
//	curl -sS localhost:8080/metrics | grep planner_plan_seconds | head
//	curl -sS localhost:8080/debug/plans | jq '.[0]'
//
// Endpoints: POST /plan (?explain=1 for a phase trace), POST /batch,
// GET /healthz, GET /metrics, GET /debug/plans, GET /debug/history —
// see package repro/service for the wire format, admission control, and
// coalescing semantics. With -debug-addr a second listener additionally
// serves net/http/pprof and GET /debug/runtime; keep it on loopback.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		debugAddr   = flag.String("debug-addr", "", "listen address for pprof and debug surfaces (empty = disabled; keep loopback-only)")
		workers     = flag.Int("workers", 0, "concurrent enumerations, each on one goroutine (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "admission queue depth beyond the workers; overflow is shed with 429")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		cacheSize   = flag.Int("cache-size", 4096, "plan cache entries (0 disables caching)")
		solver      = flag.String("solver", "auto", "default algorithm: auto | dphyp | dpsize | dpsub | dpccp | topdown | greedy | iterdp")
		costMod     = flag.String("cost", "cout", "default cost model: cout | cmm | nlj | hash | physical")
		budgetPairs = flag.Int("budget-pairs", 10_000_000, "per-plan csg-cmp-pair budget before greedy fallback (0 = unlimited)")
		historyFile = flag.String("history-file", "", "persistent planning-cost history JSON (loaded at startup, saved periodically and at shutdown)")
		historyInt  = flag.Duration("history-interval", 5*time.Minute, "periodic history save cadence")
		snapFile    = flag.String("snapshot-file", "", "persistent plan-cache snapshot JSON (restored at startup for warm-start, saved periodically and at shutdown)")
		snapInt     = flag.Duration("snapshot-interval", 5*time.Minute, "periodic plan-cache snapshot save cadence")
		overload    = flag.Bool("overload-ladder", false, "enable the overload degradation ladder (tighten budgets -> greedy-only -> shed)")
		targetP99   = flag.Duration("target-p99", 0, "planning-latency SLO the ladder defends (0 = queue depth only; implies -overload-ladder)")
		degBudget   = flag.Duration("degraded-budget", 50*time.Millisecond, "plan budget imposed at ladder tier 1+")
		ladderHold  = flag.Duration("ladder-hold", 5*time.Second, "quiet period before the ladder de-escalates one tier")
		slowPlan    = flag.Duration("slow-plan", 0, "log a warning for planning requests at least this slow (0 = disabled)")
		traceSample = flag.Int("trace-sample", 0, "attach an explain trace to 1 in N planning requests for /debug/plans (0 = disabled)")
		ringSize    = flag.Int("ring-size", 32, "slowest plans kept for /debug/plans")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight plans")
		logLevel    = flag.String("log-level", "info", "log level: debug | info | warn | error")
		quiet       = flag.Bool("quiet", false, "suppress per-request logs (level warn)")
	)
	flag.Parse()

	alg, err := repro.ParseAlgorithm(*solver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpserved:", err)
		os.Exit(2)
	}
	model, err := repro.ParseCostModel(*costMod)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpserved:", err)
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "dpserved: bad -log-level:", err)
		os.Exit(2)
	}
	if *quiet && level < slog.LevelWarn {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	planner := repro.NewPlanner(
		repro.WithAlgorithm(alg),
		repro.WithCostModel(model),
		repro.WithPlanCacheSize(*cacheSize),
		repro.WithBudget(repro.Budget{MaxCsgCmpPairs: *budgetPairs}),
	)
	cfg := service.Config{
		Planner:           planner,
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Logger:            logger,
		HistoryPath:       *historyFile,
		HistoryInterval:   *historyInt,
		SnapshotPath:      *snapFile,
		SnapshotInterval:  *snapInt,
		SlowPlanThreshold: *slowPlan,
		TraceSample:       *traceSample,
		RingSize:          *ringSize,
	}
	if *overload || *targetP99 > 0 {
		cfg.Overload = &service.OverloadConfig{
			TargetP99:      *targetP99,
			Hold:           *ladderHold,
			DegradedBudget: *degBudget,
		}
	}
	svc := service.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// SIGINT/SIGTERM start the drain; a second signal aborts hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("dpserved: serving",
			"addr", *addr, "solver", *solver, "cost", *costMod,
			"workers", cfg.Workers, "queue", cfg.QueueDepth)
		errCh <- httpSrv.ListenAndServe()
	}()

	// The debug listener is separate so profiling endpoints (which can
	// block for seconds and expose internals) never share a port with
	// plan traffic.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           svc.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("dpserved: debug surfaces on", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("dpserved: debug serve", "error", err)
			}
		}()
	}

	select {
	case err := <-errCh:
		logger.Error("dpserved: serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second ^C kills immediately

	logger.Info("dpserved: signal received; draining", "timeout", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()

	// Drain the service first (new plans are refused, in-flight ones
	// finish, the planning-cost history is saved), then close the
	// listeners and idle connections.
	if err := svc.Shutdown(drainCtx); err != nil {
		logger.Warn("dpserved: drain incomplete", "error", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("dpserved: http shutdown", "error", err)
	}
	if dbgSrv != nil {
		if err := dbgSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("dpserved: debug shutdown", "error", err)
		}
	}

	m := planner.Metrics()
	logger.Info("dpserved: drained; bye",
		"plans", m.Plans, "cache_hits", m.CacheHits,
		"fallbacks", m.Fallbacks, "failures", m.Failures)
}
