package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// planObserver is the optional backend surface the observability layer
// consumes: *repro.Planner implements it, test fakes need not. When the
// backend lacks it, the dimensional metrics, /debug/history, and the
// planner_plan_seconds family are simply absent.
type planObserver interface {
	PlanObs() *obs.PlanMetrics
}

// baselineSetter is the optional backend surface through which the
// loaded planning-cost history is handed to the budget router
// (repro.Planner.SetBaselineHistory), so WithPlanBudget routing starts
// from persisted measurements instead of the static tables.
type baselineSetter interface {
	SetBaselineHistory(h *obs.History)
}

// cacheSnapshotter is the optional backend surface for warm-start
// snapshots: *repro.Planner implements it with its plan-cache
// persistence (repro's snapshot.go). Backends without it simply run
// with Config.SnapshotPath ignored (logged once at startup).
type cacheSnapshotter interface {
	SaveCacheSnapshot(path string) error
	LoadCacheSnapshot(path string) (int, error)
}

// fingerprintOf condenses a coalescing/cache key into the short stable
// hash that identifies the query in logs and /debug/plans.
func fingerprintOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// observePlan records one finished planning request into the slow-plan
// ring and emits the structured plan log line (Warn above the slow-plan
// threshold, Info otherwise).
func (s *Server) observePlan(rid uint64, key string, res *repro.Result, coalesced bool, elapsed time.Duration) {
	st := res.Stats
	relations := 0
	if res.Graph != nil {
		relations = res.Graph.NumRels()
	}
	shape := st.Shape
	if shape == "" {
		shape = "unclassified"
	}
	fp := fingerprintOf(key)
	s.ring.Observe(obs.RingEntry{
		Time:        time.Now(),
		Fingerprint: fp,
		Shape:       shape,
		Algorithm:   res.Algorithm.String(),
		Relations:   relations,
		Duration:    elapsed,
		Pairs:       int64(st.CsgCmpPairs),
		CacheHit:    st.CacheHit,
		Coalesced:   coalesced,
		Fallback:    st.FallbackGreedy,
		Trace:       st.Trace,
	})

	attrs := []any{
		"id", rid,
		"fingerprint", fp,
		"shape", shape,
		"algorithm", res.Algorithm.String(),
		"relations", relations,
		"duration_ms", float64(elapsed.Microseconds()) / 1000,
		"cache_hit", st.CacheHit,
		"coalesced", coalesced,
		"outcome", "ok",
	}
	if s.cfg.SlowPlanThreshold > 0 && elapsed >= s.cfg.SlowPlanThreshold {
		if tr := st.Trace; tr != nil {
			attrs = append(attrs,
				"enumerate_ms", float64(tr.PhaseTotal(obs.PhaseEnumerate).Microseconds())/1000,
				"iterdp_rounds_ms", float64(tr.PhaseTotal(obs.PhaseCluster).Microseconds())/1000)
		}
		s.log.Warn("slow plan", attrs...)
		return
	}
	s.log.Info("plan", attrs...)
}

// DebugHandler returns the debugging/profiling surface: net/http/pprof,
// the slow-plan ring, the planning-cost history, and live runtime
// stats. It is NOT part of Handler() — cmd/dpserved binds it to a
// separate, typically loopback-only, -debug-addr listener so profiling
// endpoints never face plan traffic. The read-only JSON surfaces
// (/debug/plans, /debug/history) are additionally mounted on the main
// handler for convenience.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/plans", s.handleDebugPlans)
	mux.HandleFunc("GET /debug/history", s.handleDebugHistory)
	mux.HandleFunc("GET /debug/runtime", s.handleDebugRuntime)
	return mux
}

// debugPlanJSON is one /debug/plans entry on the wire.
type debugPlanJSON struct {
	Seq         uint64     `json:"seq"`
	Time        string     `json:"time"`
	Fingerprint string     `json:"fingerprint"`
	Shape       string     `json:"shape"`
	Algorithm   string     `json:"algorithm"`
	Relations   int        `json:"relations"`
	DurationMS  float64    `json:"duration_ms"`
	Pairs       int64      `json:"pairs"`
	CacheHit    bool       `json:"cache_hit,omitempty"`
	Coalesced   bool       `json:"coalesced,omitempty"`
	Fallback    bool       `json:"fallback_greedy,omitempty"`
	Trace       *TraceJSON `json:"trace,omitempty"`
}

// handleDebugPlans serves GET /debug/plans: the N slowest plans seen so
// far, slowest first, each with its explain trace when the request was
// traced (explain=1 or sampled).
func (s *Server) handleDebugPlans(w http.ResponseWriter, r *http.Request) {
	entries := s.ring.Snapshot()
	out := make([]debugPlanJSON, len(entries))
	for i, e := range entries {
		out[i] = debugPlanJSON{
			Seq:         e.Seq,
			Time:        e.Time.UTC().Format(time.RFC3339Nano),
			Fingerprint: e.Fingerprint,
			Shape:       e.Shape,
			Algorithm:   e.Algorithm,
			Relations:   e.Relations,
			DurationMS:  float64(e.Duration.Microseconds()) / 1000,
			Pairs:       e.Pairs,
			CacheHit:    e.CacheHit,
			Coalesced:   e.Coalesced,
			Fallback:    e.Fallback,
			Trace:       traceJSON(e.Trace),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// debugHistoryJSON is the body of GET /debug/history.
type debugHistoryJSON struct {
	Persistent bool               `json:"persistent"`
	Series     []obs.HistoryEntry `json:"series"`
}

// handleDebugHistory serves GET /debug/history: the merged view of the
// loaded baseline plus the live dimensional metrics — exactly what the
// next history save would persist — with per-series p50/p99 derived.
func (s *Server) handleDebugHistory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, debugHistoryJSON{
		Persistent: s.histPath != "",
		Series:     s.historyView().Entries(),
	})
}

// handleDebugRuntime serves GET /debug/runtime: the process-level
// numbers worth glancing at before reaching for a profile.
func (s *Server) handleDebugRuntime(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeJSON(w, http.StatusOK, map[string]any{
		"goroutines":        runtime.NumGoroutine(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"heap_alloc_bytes":  ms.HeapAlloc,
		"heap_inuse_bytes":  ms.HeapInuse,
		"heap_objects":      ms.HeapObjects,
		"gc_cycles":         ms.NumGC,
		"gc_pause_total_ms": float64(ms.PauseTotalNs) / 1e6,
		"next_gc_bytes":     ms.NextGC,
	})
}

// historyView returns the baseline merged with a live snapshot — the
// document a save would write. The baseline is immutable after New and
// the snapshot is freshly built, so no locking beyond PlanMetrics' own.
func (s *Server) historyView() *obs.History {
	h := s.histBase.Clone()
	if s.planObs != nil {
		// Both sides are over obs.DefaultBounds by construction; a bounds
		// mismatch here would be a bug, not an input error.
		if err := h.Merge(s.planObs.Snapshot()); err != nil {
			s.log.Error("history merge failed", "error", err)
		}
	}
	return h
}

// saveHistory persists the merged history atomically. A no-op without a
// usable HistoryPath.
func (s *Server) saveHistory() error {
	if s.histPath == "" {
		return nil
	}
	return s.historyView().Save(s.histPath)
}

// saveSnapshot persists the plan cache atomically. A no-op without a
// usable snapshot backend.
func (s *Server) saveSnapshot() error {
	if s.snap == nil || s.snapPath == "" {
		return nil
	}
	return s.snap.SaveCacheSnapshot(s.snapPath)
}

// periodicSaver runs a save function on a fixed cadence until halted.
// Both persistence surfaces (planning-cost history, plan-cache
// snapshot) use one: the cadence bounds what a crash can lose to one
// interval, and Shutdown performs the authoritative final save after
// halting the ticker, so the final save cannot race a periodic one.
type periodicSaver struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startSaver(interval time.Duration, save func()) *periodicSaver {
	p := &periodicSaver{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				save()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// halt stops the saver and waits for it to exit. Idempotent, and safe
// on a nil receiver (persistence disabled).
func (p *periodicSaver) halt() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		close(p.stop)
		<-p.done
	})
}

// writePlanSeconds renders the dimensional planning-latency family into
// a /metrics scrape when the backend exposes one.
func (s *Server) writePlanSeconds(w http.ResponseWriter) {
	if s.planObs == nil {
		return
	}
	s.planObs.WritePrometheus(w, "planner_plan_seconds")
}
