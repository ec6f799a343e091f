package repro

import (
	"context"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// largeShapes are the acceptance graphs for the large-query tier: the
// 100-relation chain, star, and grid of the ISSUE plus a cycle, all
// beyond the historical single-word ceiling.
func largeShapes() []struct {
	name string
	g    *Graph
} {
	cfg := workload.LargeConfig()
	return []struct {
		name string
		g    *Graph
	}{
		{"chain100", workload.Chain(100, cfg)},
		{"star100", workload.Star(100, cfg)},
		{"grid10x10", workload.Grid(10, 10, cfg)},
		{"cycle120", workload.Cycle(120, cfg)},
	}
}

// TestLargeQueryAutoRoutesToIterDP: queries beyond 64 relations route
// to the IterDP simplification tier under SolverAuto and plan
// end-to-end through the public Planner API.
func TestLargeQueryAutoRoutesToIterDP(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	ctx := context.Background()
	for _, c := range largeShapes() {
		res, err := p.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Algorithm != IterDP {
			t.Errorf("%s: Result.Algorithm = %v, want IterDP", c.name, res.Algorithm)
		}
		if res.Stats.RoutedAlgorithm != IterDP.String() {
			t.Errorf("%s: routed to %q, want %q", c.name, res.Stats.RoutedAlgorithm, IterDP)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", c.name, err)
		}
		if !res.Plan.Rels.Equal(c.g.AllNodes()) {
			t.Errorf("%s: plan covers %v, want %v", c.name, res.Plan.Rels, c.g.AllNodes())
		}
		if res.Plan.Relations() != c.g.NumRels() {
			t.Errorf("%s: plan has %d relations, want %d", c.name, res.Plan.Relations(), c.g.NumRels())
		}
		if res.Stats.Subproblems == 0 || res.Stats.Rounds == 0 {
			t.Errorf("%s: tier accounting empty: subproblems=%d rounds=%d",
				c.name, res.Stats.Subproblems, res.Stats.Rounds)
		}
		if res.Stats.FallbackGreedy {
			t.Errorf("%s: unexpectedly degraded to Greedy", c.name)
		}
	}
}

// TestLargeQuerySerialParallelCachedIdentical: the same large query
// planned with the plan cache off and served from the plan cache must
// produce byte-identical plans — the tier's clustering and the engine's
// tie-breaks are deterministic.
func TestLargeQuerySerialParallelCachedIdentical(t *testing.T) {
	ctx := context.Background()
	for _, c := range largeShapes() {
		uncached := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
		cached := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(64))

		s, err := uncached.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s uncached: %v", c.name, err)
		}
		warm, err := cached.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s cache warm: %v", c.name, err)
		}
		hit, err := cached.PlanGraph(ctx, c.g)
		if err != nil {
			t.Fatalf("%s cache hit: %v", c.name, err)
		}
		if !hit.Stats.CacheHit {
			t.Errorf("%s: second cached plan was not a cache hit", c.name)
		}
		want := s.Plan.Compact()
		for _, alt := range []struct {
			mode string
			got  *Result
		}{{"cache-warm", warm}, {"cache-hit", hit}} {
			if got := alt.got.Plan.Compact(); got != want {
				t.Errorf("%s: %s plan differs from uncached:\n%s\nvs\n%s", c.name, alt.mode, got, want)
			}
			if !alt.got.Plan.Equal(s.Plan) {
				t.Errorf("%s: %s plan not Equal to uncached", c.name, alt.mode)
			}
		}
	}
}

// TestLargeQueryUnsupportedFallsBackToGreedy: a >64-relation graph the
// simplification tier cannot handle (a non-inner operator) degrades to
// the Greedy fallback through the budget sentinel instead of failing.
func TestLargeQueryUnsupportedFallsBackToGreedy(t *testing.T) {
	g := hypergraph.New()
	for i := 0; i < 70; i++ {
		g.AddRelation("", 1000)
	}
	for i := 0; i+1 < 70; i++ {
		g.AddSimpleEdge(i, i+1, 0.001)
	}
	g.Freeze()

	// The all-inner version must NOT fall back.
	p := NewPlanner(WithAlgorithm(SolverAuto), WithPlanCacheSize(0))
	res, err := p.PlanGraph(context.Background(), g)
	if err != nil {
		t.Fatalf("inner-join chain: %v", err)
	}
	if res.Stats.FallbackGreedy || res.Algorithm != IterDP {
		t.Fatalf("inner-join chain: algorithm %v fallback=%v, want IterDP without fallback",
			res.Algorithm, res.Stats.FallbackGreedy)
	}

	// With the fallback disabled the sentinel must surface as an error.
	strict := NewPlanner(WithAlgorithm(IterDP), WithPlanCacheSize(0), WithoutGreedyFallback())
	edgeless := hypergraph.New()
	for i := 0; i < 70; i++ {
		edgeless.AddRelation("", 1000)
	}
	edgeless.Freeze()
	if _, err := strict.PlanGraph(context.Background(), edgeless); err == nil {
		t.Fatalf("edgeless 70-relation graph: want stall error without fallback, got nil")
	}
}

// TestLargeQueryOverflowingEstimates: finite, valid inputs whose join
// estimates overflow float64 must still plan through SolverAuto and
// explicit IterDP, without a panic and without the greedy fallback. The
// tier clamps its compound-vertex cardinalities instead of handing +Inf
// to hypergraph.AddRelation.
func TestLargeQueryOverflowingEstimates(t *testing.T) {
	g := hypergraph.New()
	for i := 0; i < 100; i++ {
		g.AddRelation("", 1e30)
	}
	for i := 0; i+1 < 100; i++ {
		g.AddSimpleEdge(i, i+1, 1)
	}
	g.Freeze()
	for _, algo := range []Algorithm{SolverAuto, IterDP} {
		p := NewPlanner(WithAlgorithm(algo), WithoutGreedyFallback())
		res, err := p.PlanGraph(context.Background(), g)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Algorithm != IterDP || res.Stats.Rounds == 0 {
			t.Errorf("%v: planned by %v in %d rounds, want IterDP with compression rounds",
				algo, res.Algorithm, res.Stats.Rounds)
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("%v: invalid plan: %v", algo, err)
		}
		if res.Plan.Relations() != g.NumRels() {
			t.Fatalf("%v: plan has %d relations, want %d", algo, res.Plan.Relations(), g.NumRels())
		}
	}
}

// TestLargeQueryExplicitIterDP: the tier is also directly selectable,
// and WithClusterSize shapes its subproblems.
func TestLargeQueryExplicitIterDP(t *testing.T) {
	g := workload.Chain(100, workload.LargeConfig())
	p := NewPlanner(WithAlgorithm(IterDP), WithPlanCacheSize(0), WithClusterSize(8))
	res, err := p.PlanGraph(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != IterDP {
		t.Fatalf("Result.Algorithm = %v, want IterDP", res.Algorithm)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Rels.Equal(g.AllNodes()) {
		t.Fatalf("plan covers %v, want %v", res.Plan.Rels, g.AllNodes())
	}
}
