package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/counting"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestPlanBudgetDegradesToGreedy: a budget far below the predicted cost
// of the exact enumeration (and of the iterdp rung, when present)
// routes a SolverAuto call to greedy, and the degradation is visible in
// the stats and the session counters.
func TestPlanBudgetDegradesToGreedy(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	g := workload.Clique(10, workload.DefaultConfig())

	res, err := p.PlanGraph(context.Background(), g, WithPlanBudget(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Greedy {
		t.Fatalf("Algorithm = %v, want Greedy", res.Algorithm)
	}
	st := res.Stats
	if !st.SLODegraded {
		t.Error("Stats.SLODegraded not set")
	}
	if st.SLORung != rungGreedy {
		t.Errorf("Stats.SLORung = %d, want %d", st.SLORung, rungGreedy)
	}
	if st.PlanBudget != 100*time.Microsecond {
		t.Errorf("Stats.PlanBudget = %v", st.PlanBudget)
	}
	if st.PredictedCost <= 0 {
		t.Errorf("Stats.PredictedCost = %v, want > 0", st.PredictedCost)
	}
	m := p.Metrics()
	if m.SLODegraded != 1 {
		t.Errorf("Metrics.SLODegraded = %d, want 1", m.SLODegraded)
	}
	if m.SLOMet+m.SLOMissed != 1 {
		t.Errorf("SLOMet+SLOMissed = %d, want 1", m.SLOMet+m.SLOMissed)
	}
}

// TestPlanBudgetKeepsExactWhenAffordable: a generous budget leaves the
// topology route untouched and records the call as met.
func TestPlanBudgetKeepsExactWhenAffordable(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	g := workload.Clique(10, workload.DefaultConfig())

	res, err := p.PlanGraph(context.Background(), g, WithPlanBudget(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SLODegraded {
		t.Error("SLODegraded set under a generous budget")
	}
	if st.SLORung != rungExact {
		t.Errorf("SLORung = %d, want %d", st.SLORung, rungExact)
	}
	if !st.SLOMet {
		t.Error("SLOMet false for a call with a one-minute budget")
	}
	if m := p.Metrics(); m.SLOMet != 1 || m.SLODegraded != 0 {
		t.Errorf("Metrics = met %d degraded %d, want 1/0", m.SLOMet, m.SLODegraded)
	}
}

// TestPlanBudgetIterDPRung: when the graph is larger than one exact
// subproblem and the budget fits the iterdp estimate but not the exact
// one, the router stops on the middle rung.
func TestPlanBudgetIterDPRung(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	// star16 routes to exact DPhyp (≤ autoMaxStarRels); the static
	// tables put the exact enumeration at ~120ms and the iterdp tier at
	// ~25ms, so a 60ms budget lands between the two rungs.
	g := workload.Star(16, workload.DefaultConfig())

	res, err := p.PlanGraph(context.Background(), g, WithPlanBudget(60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != IterDP {
		t.Fatalf("Algorithm = %v, want IterDP", res.Algorithm)
	}
	st := res.Stats
	if st.SLORung != rungIterDP || !st.SLODegraded {
		t.Errorf("SLORung = %d degraded %t, want %d/true", st.SLORung, st.SLODegraded, rungIterDP)
	}
}

// TestPlanBudgetFloorIsGreedy: a budget nothing can meet still returns
// a plan — greedy is the floor — and the call is recorded as missed
// when its wall time overruns.
func TestPlanBudgetFloorIsGreedy(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	g := workload.Clique(10, workload.DefaultConfig())

	res, err := p.PlanGraph(context.Background(), g, WithPlanBudget(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Greedy {
		t.Fatalf("Algorithm = %v, want Greedy", res.Algorithm)
	}
	if res.Stats.SLOMet {
		t.Error("SLOMet true for a 1ns budget")
	}
	if m := p.Metrics(); m.SLOMissed != 1 {
		t.Errorf("Metrics.SLOMissed = %d, want 1", m.SLOMissed)
	}
}

// TestPlanBudgetRoutingDeterministic: routing is a pure function of the
// graph, budget, and (cold) history state, so repeated calls on a
// cache-disabled planner make the same decision every time.
func TestPlanBudgetRoutingDeterministic(t *testing.T) {
	g := workload.Clique(10, workload.DefaultConfig())
	var first Algorithm
	for i := 0; i < 5; i++ {
		// A fresh planner each round keeps the live registry cold, so
		// the decision depends only on the static tables.
		p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
		res, err := p.PlanGraph(context.Background(), g, WithPlanBudget(100*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Algorithm
			continue
		}
		if res.Algorithm != first {
			t.Fatalf("round %d routed %v, round 0 routed %v", i, res.Algorithm, first)
		}
	}
}

// TestPredictPlanTimeSourceOrder: the predictor prefers the live
// registry once a series has sloMinSamples observations, falls back to
// the installed baseline history, and bottoms out on the static tables.
func TestPredictPlanTimeSourceOrder(t *testing.T) {
	p := NewPlanner()
	key := obs.Key{Shape: "clique", Algorithm: TopDown.String(), N: obs.NBucket(20)}

	// Cold: static table. A 20-relation clique estimate is enormous
	// (clamped at an hour).
	if got := p.predictPlanTime("clique", TopDown, 20, DefaultClusterSize); got < time.Minute {
		t.Fatalf("cold static prediction = %v, want huge", got)
	}

	// Baseline installed: its quantile wins over the static table even
	// with a single sample.
	base := obs.NewPlanMetrics()
	base.Observe(key, 2*time.Millisecond, false)
	p.SetBaselineHistory(base.Snapshot())
	if got := p.predictPlanTime("clique", TopDown, 20, DefaultClusterSize); got > 10*time.Millisecond {
		t.Fatalf("baseline prediction = %v, want ~2ms", got)
	}

	// Live series warm: it outranks the baseline once it has enough
	// samples.
	for i := 0; i < sloMinSamples; i++ {
		p.planObs.Observe(key, 80*time.Millisecond, false)
	}
	got := p.predictPlanTime("clique", TopDown, 20, DefaultClusterSize)
	if got < 20*time.Millisecond || got > time.Second {
		t.Fatalf("live prediction = %v, want ~100ms bucket", got)
	}

	// Removing the baseline keeps the live series in charge.
	p.SetBaselineHistory(nil)
	if again := p.predictPlanTime("clique", TopDown, 20, DefaultClusterSize); again != got {
		t.Fatalf("prediction changed after baseline removal: %v != %v", again, got)
	}
}

// TestPlanBudgetCacheHitRecordsSLO: a budgeted call served from the
// cache still gets SLO stats stamped (the cached entry itself never
// carries them).
func TestPlanBudgetCacheHitRecordsSLO(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto))
	g := workload.Star(8, workload.DefaultConfig())
	ctx := context.Background()

	if _, err := p.PlanGraph(ctx, g, WithPlanBudget(time.Minute)); err != nil {
		t.Fatal(err)
	}
	res, err := p.PlanGraph(ctx, g, WithPlanBudget(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.CacheHit {
		t.Fatal("second call was not a cache hit")
	}
	if res.Stats.PlanBudget != time.Minute || !res.Stats.SLOMet {
		t.Errorf("cache hit SLO stats = budget %v met %t", res.Stats.PlanBudget, res.Stats.SLOMet)
	}
	// An unbudgeted hit on the same entry carries no SLO stats: they
	// are per-request, not cached.
	res, err = p.PlanGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanBudget != 0 || res.Stats.SLOMet {
		t.Errorf("unbudgeted hit leaked SLO stats: budget %v met %t",
			res.Stats.PlanBudget, res.Stats.SLOMet)
	}
	if m := p.Metrics(); m.SLOMet != 2 {
		t.Errorf("Metrics.SLOMet = %d, want 2 (budgeted calls only)", m.SLOMet)
	}
}

// TestStaticPairsMonotone: within every shape class the static pair
// estimate grows with n — the property rung ordering relies on.
func TestStaticPairsMonotone(t *testing.T) {
	for _, class := range []string{"chain", "cycle", "star", "clique", "grid", "mixed"} {
		prev := 0.0
		for n := 2; n <= 30; n++ {
			got := staticPairs(class, n)
			if got <= prev {
				t.Fatalf("%s: staticPairs(%d) = %g not > staticPairs(%d) = %g",
					class, n, got, n-1, prev)
			}
			prev = got
		}
	}
	// The four §4.1 shapes have closed forms: each must equal the
	// brute-force csg-cmp-pair count exactly.
	cfg := workload.DefaultConfig()
	for _, c := range []struct {
		class string
		gen   func(n int) *Graph
	}{
		{"chain", func(n int) *Graph { return workload.Chain(n, cfg) }},
		{"cycle", func(n int) *Graph { return workload.Cycle(n, cfg) }},
		{"star", func(n int) *Graph { return workload.Star(n, cfg) }},
		{"clique", func(n int) *Graph { return workload.Clique(n, cfg) }},
	} {
		for n := 3; n <= 10; n++ {
			want := counting.CountCsgCmpPairs(c.gen(n))
			if got := staticPairs(c.class, n); got != float64(want) {
				t.Errorf("%s: staticPairs(%d) = %g, want %d", c.class, n, got, want)
			}
		}
	}
}
