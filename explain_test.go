package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestExplainTraceIterDPCoverage is the acceptance check for the
// explain surface: planning a 100-relation chain with an explain trace
// attached must yield iterdp round spans plus enumeration spans that
// account for at least 90% of the reported wall time.
func TestExplainTraceIterDPCoverage(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	g := workload.Chain(100, workload.LargeConfig())
	tr := obs.NewTrace()
	res, err := p.PlanGraph(context.Background(), g, WithExplain(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trace != tr {
		t.Fatal("Stats.Trace does not carry the attached trace")
	}
	if tr.Total <= 0 || tr.Len() == 0 {
		t.Fatalf("empty trace: total=%v spans=%d", tr.Total, tr.Len())
	}
	covered := tr.PhaseTotal(obs.PhaseCluster) +
		tr.PhaseTotal(obs.PhaseEnumerate) +
		tr.PhaseTotal(obs.PhaseRecost)
	if float64(covered) < 0.9*float64(tr.Total) {
		t.Fatalf("iterdp rounds + enumeration cover %v of %v (%.0f%%), want >= 90%%\nspans: %+v",
			covered, tr.Total, 100*float64(covered)/float64(tr.Total), tr.Spans())
	}
	// Rounds are tagged and depth-0 spans partition the call: no span
	// may nest under another planner phase in the iterdp flow.
	rounds := 0
	for _, s := range tr.Spans() {
		if s.Phase == obs.PhaseCluster {
			if s.Round < 0 {
				t.Errorf("cluster span without round tag: %+v", s)
			}
			rounds++
		}
	}
	if rounds != res.Stats.Rounds {
		t.Errorf("trace has %d round spans, stats report %d rounds", rounds, res.Stats.Rounds)
	}
}

// TestExplainTraceExactSolver: a small query through a direct exact
// solver records route-free enumerate + nested materialize spans, and
// depth-0 spans sum to ≈ Total.
func TestExplainTraceExactSolver(t *testing.T) {
	p := NewPlanner(WithAlgorithm(DPhyp), WithPlanCacheSize(0))
	g := workload.Chain(12, workload.DefaultConfig())
	tr := obs.NewTrace()
	if _, err := p.PlanGraph(context.Background(), g, WithExplain(tr)); err != nil {
		t.Fatal(err)
	}
	var depth0 time.Duration
	sawEnum, sawMat := false, false
	for _, s := range tr.Spans() {
		if s.Depth == 0 {
			depth0 += s.Dur
		}
		switch s.Phase {
		case obs.PhaseEnumerate:
			sawEnum = true
			if s.Pairs == 0 || s.MemoEntries == 0 {
				t.Errorf("enumerate span missing work counters: %+v", s)
			}
		case obs.PhaseMaterialize:
			sawMat = true
			if s.Depth != 1 {
				t.Errorf("materialize span at depth %d, want 1 (inside enumerate)", s.Depth)
			}
		}
	}
	if !sawEnum || !sawMat {
		t.Fatalf("missing phases (enumerate=%v materialize=%v): %+v", sawEnum, sawMat, tr.Spans())
	}
	if depth0 > tr.Total {
		t.Fatalf("depth-0 spans (%v) exceed Total (%v)", depth0, tr.Total)
	}
}

// TestExplainTraceCacheHit: a traced call served from the plan cache
// returns a trace with the cache-lookup phase and no enumeration, and
// the cached entry never retains a previous request's trace.
func TestExplainTraceCacheHit(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto))
	g := workload.Star(14, workload.DefaultConfig())
	ctx := context.Background()

	tr1 := obs.NewTrace()
	res1, err := p.PlanGraph(ctx, g, WithExplain(tr1))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.CacheHit {
		t.Fatal("first call must miss")
	}

	tr2 := obs.NewTrace()
	res2, err := p.PlanGraph(ctx, g, WithExplain(tr2))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.CacheHit {
		t.Fatal("second call must hit the cache")
	}
	if res2.Stats.Trace != tr2 {
		t.Fatalf("cache hit carries trace %p, want this request's %p", res2.Stats.Trace, tr2)
	}
	if tr2.PhaseTotal(obs.PhaseCacheLookup) == 0 {
		t.Fatalf("cache-hit trace has no cache_lookup span: %+v", tr2.Spans())
	}
	for _, s := range tr2.Spans() {
		if s.Phase == obs.PhaseEnumerate || s.Phase == obs.PhaseMaterialize {
			t.Fatalf("cache-hit trace contains enumeration span: %+v", s)
		}
	}

	// An untraced hit must not inherit tr1 or tr2 from the cached stats.
	res3, err := p.PlanGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.Trace != nil {
		t.Fatalf("untraced cache hit carries a stale trace %p", res3.Stats.Trace)
	}
}

// TestPlanObsRecordsHitsAndMisses is the satellite-6 regression: the
// dimensional metrics must see every successful call — cache hits
// included — under the routed shape × algorithm × n labels.
func TestPlanObsRecordsHitsAndMisses(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto))
	g := workload.Star(14, workload.DefaultConfig())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.PlanGraph(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	keys := p.PlanObs().Keys()
	if len(keys) != 1 {
		t.Fatalf("PlanObs keys = %v, want exactly one series", keys)
	}
	k := keys[0]
	if k.Shape != "star" || k.N != "9-16" {
		t.Fatalf("series key = %+v, want shape=star n=9-16", k)
	}
	h := p.PlanObs().Snapshot()
	entries := h.Entries()
	if len(entries) != 1 || entries[0].Count != 3 {
		t.Fatalf("snapshot = %+v, want one series with 3 observations (hits included)", entries)
	}
}
