package repro

import (
	"context"
	"encoding/json"
	"errors"
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
// exactly. SolverAuto exercises the routed mix (serial DPsize on
// chains and DPccp on cycles, DPsub on parallel cliques, DPhyp
// elsewhere).
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
// with exactly one relation marked dependent on relation 0 — the class
// the dp.ParallelSafe admissibility precheck admits (every emitted pair
// keeps at least one valid orientation, so memo membership stays purely
// structural).
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

// TestNewParallelModesDeterministic pins the parallel DPhyp enumeration
// spine to the byte-identical contract at workers ∈ {1,2,4}. Half the
// graphs carry one dependent relation — previously blanket-rejected by
// dp.ParallelSafe, now admitted by the precheck — and every parallel
// run must actually engage its workers (Stats.Workers), not silently
// fall back to serial.
func TestNewParallelModesDeterministic(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 20
	}
	ctx := context.Background()
	serial := NewPlanner(WithAlgorithm(DPhyp), WithPlanCacheSize(0), WithParallelism(1))
	par := []struct {
		workers int
		p       *Planner
	}{
		{2, NewPlanner(WithAlgorithm(DPhyp), WithPlanCacheSize(0), WithParallelism(2))},
		{4, NewPlanner(WithAlgorithm(DPhyp), WithPlanCacheSize(0), WithParallelism(4))},
	}
	for i := 0; i < graphs; i++ {
		var g *Graph
		if i%2 == 0 {
			g = detGraph(i)
		} else {
			g = depGraph(i)
		}
		rs, err := serial.PlanGraph(ctx, g)
		if err != nil {
			t.Fatalf("graph %d serial: %v", i, err)
		}
		want, err := json.Marshal(rs.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range par {
			rp, err := pp.p.PlanGraph(ctx, g)
			if err != nil {
				t.Fatalf("graph %d workers=%d: %v", i, pp.workers, err)
			}
			if rp.Stats.Workers != pp.workers {
				t.Errorf("graph %d: ran with %d workers, want %d (parallel mode did not engage)",
					i, rp.Stats.Workers, pp.workers)
			}
			got, err := json.Marshal(rp.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("graph %d workers=%d: plan differs from serial\nserial:   %s\nparallel: %s",
					i, pp.workers, want, got)
			}
			if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs {
				t.Errorf("graph %d workers=%d: csg-cmp-pairs %d != serial %d",
					i, pp.workers, rp.Stats.CsgCmpPairs, rs.Stats.CsgCmpPairs)
			}
		}
	}
}

// TestParallelWorkerStats: a parallel run records its worker count and
// per-worker built-pair counts (summing exactly to the run's pair
// total in the direct and the deferred modes alike), and the planner's
// session metrics see the run.
func TestParallelWorkerStats(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		g    *Graph
	}{
		{"dpsub-direct", DPsub, workload.Clique(10, workload.DefaultConfig())},
		{"dphyp-deferred", DPhyp, workload.Star(11, workload.DefaultConfig())},
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
// parallel mode (only DPhyp and DPsub have one).
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
