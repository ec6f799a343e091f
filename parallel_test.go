package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/workload"
)

// detGraph derives the i-th determinism-test graph: shapes and random
// graphs mixed, all at or above ParallelMinRels so the parallel paths
// actually engage.
func detGraph(i int) *Graph {
	seed := int64(7000 + i)
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	switch i % 8 {
	case 0:
		return workload.Chain(10+rng.Intn(4), cfg)
	case 1:
		return workload.Cycle(10+rng.Intn(4), cfg)
	case 2:
		return workload.Star(10+rng.Intn(3), cfg)
	case 3:
		return workload.Clique(10, cfg)
	case 4:
		return workload.Grid(2, 5+rng.Intn(2), cfg)
	case 5:
		return workload.RandomHyper(rng, 10+rng.Intn(3), 1+rng.Intn(3), cfg)
	default:
		return workload.RandomSimple(rng, 10+rng.Intn(4), rng.Intn(5), cfg)
	}
}

// TestParallelPlansDeterministic is the headline determinism guarantee:
// over 200 random graphs, the plan JSON produced with parallel
// enumeration is byte-identical to the serial plan at every worker
// count, and the csg-cmp-pair counts (the §2.2 effort yardstick) agree
// exactly. SolverAuto exercises the routed mix (DPsub on parallel
// cliques, DPhyp on hyperedges, DPccp elsewhere).
func TestParallelPlansDeterministic(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 40
	}
	ctx := context.Background()
	serial := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(1))
	par2 := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(2))
	par4 := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(4))

	for i := 0; i < graphs; i++ {
		g := detGraph(i)
		rs, err := serial.PlanGraph(ctx, g)
		if err != nil {
			t.Fatalf("graph %d serial: %v", i, err)
		}
		want, err := json.Marshal(rs.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range []struct {
			name string
			p    *Planner
		}{{"par2", par2}, {"par4", par4}} {
			rp, err := pp.p.PlanGraph(ctx, g)
			if err != nil {
				t.Fatalf("graph %d %s: %v", i, pp.name, err)
			}
			got, err := json.Marshal(rp.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("graph %d (%s, routed %s): plan differs from serial\nserial:   %s\nparallel: %s",
					i, pp.name, rp.Stats.RoutedAlgorithm, want, got)
			}
			if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs {
				t.Errorf("graph %d (%s): csg-cmp-pairs %d != serial %d",
					i, pp.name, rp.Stats.CsgCmpPairs, rs.Stats.CsgCmpPairs)
			}
		}
	}
}

// depGraph derives the i-th dependent-relation graph: a join-only shape
// with exactly one relation marked dependent on relation 0, so pricing
// takes the dependency checks and the dependent join variants.
func depGraph(i int) *Graph {
	seed := int64(9000 + i)
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	var g *Graph
	switch i % 4 {
	case 0:
		g = workload.Chain(10+rng.Intn(3), cfg)
	case 1:
		g = workload.Cycle(10+rng.Intn(3), cfg)
	case 2:
		g = workload.Star(10+rng.Intn(3), cfg)
	default:
		g = workload.Grid(2, 5+rng.Intn(2), cfg)
	}
	g.SetFree(1+rng.Intn(g.NumRels()-1), bitset.New(0))
	return g
}

// TestRoutingKeepsPlan: SolverAuto's choice of solver never changes the
// plan. Every exact solver prices the same csg-cmp-pairs through the
// same builder, so over the determinism corpus, half of it with a
// dependent relation, the plan routed at 1 and at 2 workers renders
// byte-identically to serial DPhyp's, with equal pair and costed-plan
// counts. Two further inputs can leave a connected set without a plan,
// where DPhyp's membership test skips the set: generate-and-test runs
// over operator trees, whose filter rejects plans, and relations that
// reference each other, whose join the dependency check rejects both
// ways.
func TestRoutingKeepsPlan(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 20
	}
	ctx := context.Background()
	ref := NewPlanner(WithAlgorithm(DPhyp), WithPlanCacheSize(0), WithParallelism(1))
	routed := []struct {
		workers int
		p       *Planner
	}{
		{1, NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(1))},
		{2, NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0), WithParallelism(2))},
	}
	check := func(name string, plan func(p *Planner) (*Result, error)) {
		t.Helper()
		rs, err := plan(ref)
		var want []byte
		if err == nil {
			want, err = json.Marshal(rs.Plan)
		}
		for _, r := range routed {
			rp, rerr := plan(r.p)
			if (rerr == nil) != (err == nil) {
				t.Errorf("%s workers=%d: error %v, DPhyp's %v", name, r.workers, rerr, err)
				continue
			}
			if err != nil {
				continue
			}
			got, jerr := json.Marshal(rp.Plan)
			if jerr != nil {
				t.Fatal(jerr)
			}
			if string(got) != string(want) {
				t.Errorf("%s workers=%d (routed %s): plan differs from DPhyp's\ndphyp:  %s\nrouted: %s",
					name, r.workers, rp.Stats.RoutedAlgorithm, want, got)
			}
			if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs || rp.Stats.CostedPlans != rs.Stats.CostedPlans {
				t.Errorf("%s workers=%d (routed %s): pairs %d, costed %d; DPhyp's %d, %d",
					name, r.workers, rp.Stats.RoutedAlgorithm, rp.Stats.CsgCmpPairs, rp.Stats.CostedPlans,
					rs.Stats.CsgCmpPairs, rs.Stats.CostedPlans)
			}
		}
	}
	for i := 0; i < graphs; i++ {
		g := detGraph(i)
		if i%2 == 1 {
			g = depGraph(i)
		}
		check(fmt.Sprintf("graph %d", i), func(p *Planner) (*Result, error) { return p.PlanGraph(ctx, g) })
	}

	cfg := workload.DefaultConfig()
	for _, tc := range []struct {
		name string
		doc  *QueryJSON
	}{
		{"star-antijoin10/5", treeJSON(workload.StarTree(10, 5, cfg))},
		{"star-antijoin12/11", treeJSON(workload.StarTree(12, 11, cfg))},
		{"cycle-outer10/5", treeJSON(workload.CycleTree(10, 5, cfg))},
	} {
		check(tc.name+" generate-and-test", func(p *Planner) (*Result, error) {
			return p.PlanJSON(ctx, tc.doc, WithGenerateAndTest())
		})
	}

	// R1 and R2 reference each other, so no join of a side holding R1
	// with a side holding R2 is valid: {R1,R2} has no plan, and neither
	// has the query. Every route must fail as DPhyp does.
	mutual := workload.Chain(10, cfg)
	mutual.SetFree(1, bitset.New(2))
	mutual.SetFree(2, bitset.New(1))
	check("chain10 mutual dependents", func(p *Planner) (*Result, error) { return p.PlanGraph(ctx, mutual) })
}

// TestParallelWorkerStats: a parallel run records its worker count and
// per-worker built-pair counts (summing exactly to the run's pair
// total), and the planner's session metrics see the run.
func TestParallelWorkerStats(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		g    *Graph
	}{
		{"dpsub-direct", DPsub, workload.Clique(10, workload.DefaultConfig())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0), WithParallelism(3))
			res, err := p.PlanGraph(context.Background(), c.g)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Workers != 3 {
				t.Fatalf("Workers = %d, want 3", st.Workers)
			}
			if len(st.WorkerPairs) != 3 {
				t.Fatalf("WorkerPairs = %v, want 3 entries", st.WorkerPairs)
			}
			sum := 0
			for _, wp := range st.WorkerPairs {
				sum += wp
			}
			if sum != st.CsgCmpPairs {
				t.Errorf("sum(WorkerPairs) = %d, want CsgCmpPairs = %d", sum, st.CsgCmpPairs)
			}
			m := p.Metrics()
			if m.ParallelRuns != 1 {
				t.Errorf("ParallelRuns = %d, want 1", m.ParallelRuns)
			}
			if m.ParallelPairs != uint64(sum) {
				t.Errorf("ParallelPairs = %d, want %d", m.ParallelPairs, sum)
			}
		})
	}
}

// TestParallelSmallQueriesStaySerial: the serial engine runs even when
// parallelism was requested below the crossover — fork/join overhead
// must not regress small queries — and for every solver without a
// parallel mode (only DPsub has one).
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
			p := NewPlanner(WithAlgorithm(c.alg), WithPlanCacheSize(0), WithParallelism(4))
			res, err := p.PlanGraph(context.Background(), c.g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Workers > 1 {
				t.Fatalf("ran with %d workers, want serial", res.Stats.Workers)
			}
			if m := p.Metrics(); m.ParallelRuns != 0 {
				t.Fatalf("ParallelRuns = %d, want 0", m.ParallelRuns)
			}
		})
	}
}

// TestParallelTracedRunsStaySerial: traces (and observation hooks)
// need the serial emission order, so observed runs are pinned to one
// worker.
func TestParallelTracedRunsStaySerial(t *testing.T) {
	p := NewPlanner(WithPlanCacheSize(0), WithParallelism(4))
	var tr Trace
	res, err := p.PlanGraph(context.Background(),
		workload.Star(11, workload.DefaultConfig()), WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers > 1 {
		t.Fatalf("traced run used %d workers, want serial", res.Stats.Workers)
	}
	if len(tr.Steps) == 0 {
		t.Fatal("trace recorded no steps")
	}
}

// TestParallelBudgetFallsBackToGreedy: a budget trip under parallel
// enumeration degrades to the serial Greedy plan exactly like a serial
// trip, and the cancellation path returns promptly.
func TestParallelBudgetFallsBackToGreedy(t *testing.T) {
	g := workload.Clique(11, workload.DefaultConfig())
	p := NewPlanner(WithAlgorithm(DPsub), WithPlanCacheSize(0), WithParallelism(4),
		WithBudget(Budget{MaxCsgCmpPairs: 500}))
	res, err := p.PlanGraph(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.FallbackGreedy || !res.Stats.BudgetExhausted {
		t.Fatalf("stats = %+v, want greedy fallback after budget trip", res.Stats)
	}
	if res.Algorithm != Greedy {
		t.Fatalf("Algorithm = %v, want Greedy", res.Algorithm)
	}
	if res.Stats.Workers != 4 {
		t.Fatalf("Workers = %d, want the aborted exact pass's 4", res.Stats.Workers)
	}

	hard := NewPlanner(WithAlgorithm(DPsub), WithPlanCacheSize(0), WithParallelism(4),
		WithBudget(Budget{MaxCsgCmpPairs: 500}), WithoutGreedyFallback())
	if _, err := hard.PlanGraph(context.Background(), g); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.PlanGraph(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelConcurrentPlans drives many concurrent Planner.Plan calls
// that each enumerate in parallel (parallel-inside-parallel) through a
// shared planner — the cache-miss hot path of a loaded server. Run
// under -race in CI.
func TestParallelConcurrentPlans(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(4), WithParallelism(2))
	graphs := make([]*Graph, 8)
	for i := range graphs {
		graphs[i] = detGraph(i)
	}
	want := make([]float64, len(graphs))
	for i, g := range graphs {
		res, err := p.PlanGraph(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cost()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				gi := (w + i) % len(graphs)
				res, err := p.PlanGraph(context.Background(), graphs[gi])
				if err != nil {
					errs <- err
					return
				}
				if res.Cost() != want[gi] {
					t.Errorf("graph %d: cost %g != %g", gi, res.Cost(), want[gi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
