package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/workload"
)

// detGraph derives the i-th routing-test graph: shapes and random
// graphs of 10–13 relations mixed, with and without hyperedges, all
// below the exact cutoffs.
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
// same builder, so over the routing corpus, half of it with a dependent
// relation, the routed plan renders byte-identically to an independent
// enumerator's, with equal pair and costed-plan counts: DPccp's on a
// graph without hyperedges, DPsize's on the rest. Two further inputs
// can leave a connected set without a plan, where DPhyp's membership
// test skips the set: generate-and-test runs over operator trees, whose
// filter rejects plans, and relations that reference each other, whose
// join the dependency check rejects both ways.
func TestRoutingKeepsPlan(t *testing.T) {
	graphs := 200
	if testing.Short() {
		graphs = 20
	}
	ctx := context.Background()
	routed := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	dpccp := NewPlanner(WithAlgorithm(DPccp), WithPlanCacheSize(0))
	dpsize := NewPlanner(WithAlgorithm(DPsize), WithPlanCacheSize(0))
	check := func(name string, plan func(p *Planner) (*Result, error)) {
		t.Helper()
		rp, rerr := plan(routed)
		// A failed call carries no graph, so DPsize, which plans any
		// graph, is its reference.
		ref, refName := dpsize, "DPsize"
		if rerr == nil && !rp.Graph.HasHyperedges() {
			ref, refName = dpccp, "DPccp"
		}
		rs, err := plan(ref)
		var want []byte
		if err == nil {
			want, err = json.Marshal(rs.Plan)
		}
		if (rerr == nil) != (err == nil) {
			t.Errorf("%s: error %v, %s's %v", name, rerr, refName, err)
			return
		}
		if err != nil {
			return
		}
		got, jerr := json.Marshal(rp.Plan)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if string(got) != string(want) {
			t.Errorf("%s (routed %s): plan differs from %s's\n%s: %s\nrouted: %s",
				name, rp.Stats.RoutedAlgorithm, refName, refName, want, got)
		}
		if rp.Stats.CsgCmpPairs != rs.Stats.CsgCmpPairs || rp.Stats.CostedPlans != rs.Stats.CostedPlans {
			t.Errorf("%s (routed %s): pairs %d, costed %d; %s's %d, %d",
				name, rp.Stats.RoutedAlgorithm, rp.Stats.CsgCmpPairs, rp.Stats.CostedPlans,
				refName, rs.Stats.CsgCmpPairs, rs.Stats.CostedPlans)
		}
	}
	for i := 0; i < graphs; i++ {
		// Alternate blocks of eight, so every detGraph class, random
		// hypergraphs included, is planned.
		g := detGraph(i)
		if (i/8)%2 == 1 {
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
	// has the query. The routed call must fail as DPsize does.
	mutual := workload.Chain(10, cfg)
	mutual.SetFree(1, bitset.New(2))
	mutual.SetFree(2, bitset.New(1))
	check("chain10 mutual dependents", func(p *Planner) (*Result, error) { return p.PlanGraph(ctx, mutual) })
}

// TestConcurrentRoutedCacheMisses drives concurrent PlanGraph calls over
// the routed mix through one planner whose 4-entry cache is smaller than
// the 8 graphs, so calls keep missing and enumerate side by side on
// pooled engines, the cache-miss hot path of a loaded server. Every
// call must return the cost planned before the goroutines started. Run
// under -race in CI.
func TestConcurrentRoutedCacheMisses(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(4))
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
