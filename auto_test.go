package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// autoShapes are canonical graphs paired with the algorithm the §4
// routing table must pick for them.
func autoShapes() []struct {
	name   string
	g      *Graph
	shape  string
	routed Algorithm
} {
	cfg := workload.DefaultConfig()
	return []struct {
		name   string
		g      *Graph
		shape  string
		routed Algorithm
	}{
		// Every graph without hyperedges goes to DPccp; a clique goes to
		// DPsub only when more than one worker plans it.
		{"chain8", workload.Chain(8, cfg), "chain", DPccp},
		{"cycle8", workload.Cycle(8, cfg), "cycle", DPccp},
		{"star8", workload.Star(8, cfg), "star", DPccp},
		{"clique6", workload.Clique(6, cfg), "clique", DPccp},
		{"grid3x3", workload.Grid(3, 3, cfg), "grid", DPccp},
		// Hyperedges go to DPhyp: DPccp does not accept them, and DPhyp
		// is the only enumerator that never generates failing pairs on
		// them.
		{"cyclehyper", workload.CycleHyper(8, 1, cfg), "cycle", DPhyp},
		// Beyond the exact cutoffs the router degrades to Greedy up
		// front.
		{"clique16", workload.Clique(16, cfg), "clique", Greedy},
		{"star20", workload.Star(20, cfg), "star", Greedy},
	}
}

// TestSolverAutoRouting: the routed algorithm, shape class, and actual
// algorithm are all visible to the caller.
func TestSolverAutoRouting(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	ctx := context.Background()
	for _, c := range autoShapes() {
		res, err := p.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := res.Stats
		if !st.AutoRouted {
			t.Errorf("%s: Stats.AutoRouted not set", c.name)
		}
		if st.Shape != c.shape {
			t.Errorf("%s: Stats.Shape = %q, want %q", c.name, st.Shape, c.shape)
		}
		if st.RoutedAlgorithm != c.routed.String() {
			t.Errorf("%s: routed to %q, want %q", c.name, st.RoutedAlgorithm, c.routed)
		}
		if res.Algorithm != c.routed {
			t.Errorf("%s: Result.Algorithm = %v, want %v", c.name, res.Algorithm, c.routed)
		}
	}
}

// TestSolverAutoTracedCallsUseDPhyp: only DPhyp records the Fig. 3
// steps, so SolverAuto routes a traced exact call to it. The trace must
// equal a direct DPhyp call's and the plan an untraced call's; a call
// routed to Greedy stays there and records nothing.
func TestSolverAutoTracedCallsUseDPhyp(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	ctx := context.Background()
	for _, c := range autoShapes() {
		var auto, direct Trace
		res, err := p.PlanGraph(ctx, c.g, WithTrace(&auto))
		if err != nil {
			t.Fatalf("%s traced: %v", c.name, err)
		}
		plain, err := p.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s untraced: %v", c.name, err)
		}
		got, _ := json.Marshal(res.Plan)
		want, _ := json.Marshal(plain.Plan)
		if string(got) != string(want) {
			t.Errorf("%s: traced plan\n%s\nuntraced\n%s", c.name, got, want)
		}
		routed := DPhyp
		if c.routed == Greedy {
			routed = Greedy
		}
		if res.Algorithm != routed {
			t.Errorf("%s: traced call ran %v, want %v", c.name, res.Algorithm, routed)
		}
		if routed == Greedy {
			if len(auto.Steps) != 0 {
				t.Errorf("%s: greedy call recorded %d steps", c.name, len(auto.Steps))
			}
			continue
		}
		if _, err := p.PlanGraph(ctx, c.g, WithAlgorithm(DPhyp), WithTrace(&direct)); err != nil {
			t.Fatalf("%s direct: %v", c.name, err)
		}
		if len(auto.Steps) == 0 || auto.String() != direct.String() {
			t.Errorf("%s: SolverAuto recorded %d steps, direct DPhyp %d", c.name, len(auto.Steps), len(direct.Steps))
		}
	}
}

// TestSolverAutoMatchesRoutedSolver is the acceptance check that
// SolverAuto never returns a costlier plan than the solver it routed
// to, and that both sit exactly at the brute-force optimum for graphs
// the oracle can certify. Caching is disabled so the two runs cannot
// serve each other.
func TestSolverAutoMatchesRoutedSolver(t *testing.T) {
	auto := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	direct := NewPlanner(WithPlanCacheSize(0))
	ctx := context.Background()
	for _, c := range autoShapes() {
		if c.g.NumRels() > 10 {
			continue // keep the exact-vs-exact comparison fast
		}
		ares, err := auto.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s auto: %v", c.name, err)
		}
		dres, err := direct.PlanGraph(ctx, c.g, WithAlgorithm(c.routed))
		if err != nil {
			t.Fatalf("%s direct: %v", c.name, err)
		}
		if ares.Cost() > dres.Cost() {
			t.Errorf("%s: auto cost %g exceeds routed solver's %g", c.name, ares.Cost(), dres.Cost())
		}
		if c.routed == Greedy {
			continue
		}
		opt, err := oracle.Optimal(c.g, Cout)
		if err != nil {
			t.Fatalf("%s oracle: %v", c.name, err)
		}
		if ares.Cost() != opt.Cost {
			t.Errorf("%s: auto cost %.10g != oracle optimum %.10g", c.name, ares.Cost(), opt.Cost)
		}
	}
}

// TestSolverAutoBudgetFallback: when the budget trips mid-enumeration
// under SolverAuto, Stats must name both the solver the router picked
// and the greedy downgrade that actually produced the plan.
func TestSolverAutoBudgetFallback(t *testing.T) {
	p := NewPlanner(
		WithAlgorithm(SolverAuto),
		WithBudget(Budget{MaxCsgCmpPairs: 4}),
		WithPlanCacheSize(0),
	)
	g := workload.Star(10, workload.DefaultConfig())
	res, err := p.PlanGraph(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !st.AutoRouted || st.Shape != "star" {
		t.Errorf("routing not recorded: %+v", st)
	}
	if st.RoutedAlgorithm != DPccp.String() {
		t.Errorf("RoutedAlgorithm = %q, want %q (the router's pick must survive the fallback)",
			st.RoutedAlgorithm, DPccp)
	}
	if !st.BudgetExhausted || !st.FallbackGreedy {
		t.Errorf("budget trip not recorded: exhausted=%t fallback=%t", st.BudgetExhausted, st.FallbackGreedy)
	}
	if res.Algorithm != Greedy {
		t.Errorf("Result.Algorithm = %v, want Greedy", res.Algorithm)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Errorf("fallback plan invalid: %v", err)
	}

	// Without the fallback the same trip is a hard error that still
	// wraps ErrBudgetExhausted.
	strict := NewPlanner(
		WithAlgorithm(SolverAuto),
		WithBudget(Budget{MaxCsgCmpPairs: 4}),
		WithoutGreedyFallback(),
		WithPlanCacheSize(0),
	)
	if _, err := strict.PlanGraph(context.Background(), g); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("strict planner: got %v, want ErrBudgetExhausted", err)
	}
}

// TestSolverAutoConcurrent hammers one SolverAuto Planner from many
// goroutines over graphs of every shape class — the -race proof that
// classification, routing, and the annotated stats are safe on a
// shared planner. Costs must match a sequential reference run.
func TestSolverAutoConcurrent(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto))
	ctx := context.Background()
	shapes := autoShapes()

	want := make([]float64, len(shapes))
	for i, c := range shapes {
		res, err := p.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = res.Cost()
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := shapes[(w+i)%len(shapes)]
				res, err := p.PlanGraph(ctx, c.g)
				if err != nil {
					errc <- fmt.Errorf("%s: %w", c.name, err)
					return
				}
				if res.Cost() != want[(w+i)%len(shapes)] {
					errc <- fmt.Errorf("%s: concurrent cost %g != sequential %g",
						c.name, res.Cost(), want[(w+i)%len(shapes)])
					return
				}
				if !res.Stats.AutoRouted || res.Stats.RoutedAlgorithm == "" {
					errc <- fmt.Errorf("%s: routing stats missing under concurrency", c.name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSolverAutoCacheHit: cached results keep the routing annotation,
// and a direct call for the routed algorithm sharing the cache entry
// does NOT inherit it.
func TestSolverAutoCacheHit(t *testing.T) {
	p := NewPlanner()
	ctx := context.Background()
	g := workload.Star(8, workload.DefaultConfig())

	first, err := p.PlanGraph(ctx, g, WithAlgorithm(SolverAuto))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHit || !first.Stats.AutoRouted {
		t.Fatalf("first call: %+v", first.Stats)
	}
	second, err := p.PlanGraph(ctx, g, WithAlgorithm(SolverAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.CacheHit {
		t.Error("second auto call missed the cache")
	}
	if !second.Stats.AutoRouted || second.Stats.Shape != "star" || second.Stats.RoutedAlgorithm != DPccp.String() {
		t.Errorf("cache hit lost routing annotation: %+v", second.Stats)
	}

	// A direct DPccp call shares the entry (routing is deterministic)
	// but must not look auto-routed.
	direct, err := p.PlanGraph(ctx, g, WithAlgorithm(DPccp))
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Stats.CacheHit {
		t.Error("direct call for the routed algorithm should share the cache entry")
	}
	if direct.Stats.AutoRouted || direct.Stats.Shape != "" {
		t.Errorf("direct call inherited routing annotation: %+v", direct.Stats)
	}
	if direct.Cost() != second.Cost() {
		t.Errorf("shared entry cost mismatch: %g vs %g", direct.Cost(), second.Cost())
	}
}
