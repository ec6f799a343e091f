package iterdp_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/iterdp"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/workload"
)

// exactSolver adapts the DPhyp engine into the tier's Exact callback,
// the same wiring the planning root uses.
func exactSolver(model cost.Model, pool *memo.Pool) func(*hypergraph.Graph) (*plan.Node, dp.Stats, error) {
	return func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error) {
		sub.Freeze()
		return core.Solve(sub, dp.Options{Model: model, Pool: pool})
	}
}

// costsMatch compares plan costs with a relative tolerance (equal-cost
// optima reached through different tree shapes differ in the last bits
// of floating-point accumulation).
func costsMatch(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// oracleChecked wraps an Exact callback so that every subproblem the
// tier hands to the engine is additionally brute-forced by the oracle,
// asserting the engine found the true optimum of each compressed
// subgraph. This is the satellite differential wall: cluster sizes stay
// within oracle.MaxRels, so every subproblem is checkable.
func oracleChecked(t *testing.T, model cost.Model,
	inner func(*hypergraph.Graph) (*plan.Node, dp.Stats, error),
	checked *int) func(*hypergraph.Graph) (*plan.Node, dp.Stats, error) {
	t.Helper()
	return func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error) {
		p, st, err := inner(sub)
		if err != nil {
			return p, st, err
		}
		if sub.NumRels() <= oracle.MaxRels {
			opt, oerr := oracle.Optimal(sub, model)
			if oerr != nil {
				t.Errorf("oracle rejected a %d-relation subproblem: %v", sub.NumRels(), oerr)
			} else if !costsMatch(p.Cost, opt.Cost) {
				t.Errorf("subproblem of %d relations: engine cost %.10g != oracle optimum %.10g\nengine:\n%s\noracle:\n%s",
					sub.NumRels(), p.Cost, opt.Cost, p, opt)
			}
			*checked++
		} else {
			t.Errorf("subproblem of %d relations exceeds oracle.MaxRels=%d", sub.NumRels(), oracle.MaxRels)
		}
		return p, st, err
	}
}

// checkPlan asserts the stitched plan is structurally valid, covers the
// whole graph, and carries self-consistent recosted figures.
func checkPlan(t *testing.T, tag string, g *hypergraph.Graph, p *plan.Node) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%s: invalid plan: %v", tag, err)
	}
	if !p.Rels.Equal(g.AllNodes()) {
		t.Fatalf("%s: plan covers %v, want %v", tag, p.Rels, g.AllNodes())
	}
	if p.Relations() != g.NumRels() || p.Joins() != g.NumRels()-1 {
		t.Fatalf("%s: plan has %d relations / %d joins, want %d / %d",
			tag, p.Relations(), p.Joins(), g.NumRels(), g.NumRels()-1)
	}
	if p.Cost <= 0 || math.IsNaN(p.Cost) || math.IsInf(p.Cost, 0) {
		t.Fatalf("%s: suspicious recosted plan cost %v", tag, p.Cost)
	}
}

// TestLargeShapesOracleDifferential is the headline acceptance test:
// 100-relation chain, star, and grid queries (plus a cycle and a
// clique-ish random graph) plan end-to-end through the simplification
// tier, and EVERY exactly-solved subproblem matches the brute-force
// oracle optimum.
func TestLargeShapesOracleDifferential(t *testing.T) {
	cfg := workload.LargeConfig()
	shapes := []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"chain100", workload.Chain(100, cfg)},
		{"star100", workload.Star(100, cfg)},
		{"grid10x10", workload.Grid(10, 10, cfg)},
		{"cycle80", workload.Cycle(80, cfg)},
	}
	model := cost.Default()
	pool := &memo.Pool{}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sh.g.Freeze()
			checked := 0
			p, stats, err := iterdp.Solve(sh.g, iterdp.Options{
				Model: model,
				Exact: oracleChecked(t, model, exactSolver(model, pool), &checked),
			})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			checkPlan(t, sh.name, sh.g, p)
			if stats.Subproblems == 0 || checked == 0 {
				t.Fatalf("expected exact subproblems, got Subproblems=%d checked=%d",
					stats.Subproblems, checked)
			}
			if stats.Rounds == 0 {
				t.Fatalf("a %d-relation graph must need at least one compression round", sh.g.NumRels())
			}
			if stats.CsgCmpPairs == 0 || stats.CostedPlans == 0 {
				t.Fatalf("sub-enumeration effort not accumulated: %+v", stats)
			}
		})
	}
}

// TestRandomLargeOracleDifferential sweeps seeded random simple graphs
// of 65–120 relations — just past the historical single-word ceiling up
// to nearly double it — through the oracle-checked tier.
func TestRandomLargeOracleDifferential(t *testing.T) {
	runs := 12
	if testing.Short() {
		runs = 4
	}
	cfg := workload.LargeConfig()
	model := cost.Default()
	pool := &memo.Pool{}
	for i := 0; i < runs; i++ {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		n := 65 + rng.Intn(56) // 65..120
		g := workload.RandomSimple(rng, n, rng.Intn(n/4), cfg)
		g.Freeze()
		checked := 0
		p, stats, err := iterdp.Solve(g, iterdp.Options{
			Model: model,
			Exact: oracleChecked(t, model, exactSolver(model, pool), &checked),
		})
		if err != nil {
			t.Fatalf("seed %d (n=%d): %v", 7000+i, n, err)
		}
		checkPlan(t, "random", g, p)
		if checked != stats.Subproblems {
			t.Fatalf("seed %d: checked %d subproblems but stats say %d",
				7000+i, checked, stats.Subproblems)
		}
	}
}

// TestDeterministic asserts that repeated runs over the same graph
// produce byte-identical plans: the clustering tie-breaks and the
// engine's plan tie-breaks are both order-independent.
func TestDeterministic(t *testing.T) {
	cfg := workload.LargeConfig()
	model := cost.Default()
	for _, n := range []int{70, 100} {
		g := workload.Chain(n, cfg)
		g.Freeze()
		var first *plan.Node
		for rep := 0; rep < 3; rep++ {
			pool := &memo.Pool{}
			p, _, err := iterdp.Solve(g, iterdp.Options{
				Model: model,
				Exact: exactSolver(model, pool),
			})
			if err != nil {
				t.Fatalf("chain %d rep %d: %v", n, rep, err)
			}
			if first == nil {
				first = p
			} else if !p.Equal(first) || p.Compact() != first.Compact() {
				t.Fatalf("chain %d: rep %d plan differs:\n%s\nvs\n%s",
					n, rep, p.Compact(), first.Compact())
			}
		}
	}
}

// TestSmallGraphIsExact: when the whole graph fits one cluster, the
// tier must degenerate to a single exact enumeration — the returned
// plan cost equals the brute-force optimum outright.
func TestSmallGraphIsExact(t *testing.T) {
	cfg := workload.DefaultConfig()
	model := cost.Default()
	pool := &memo.Pool{}
	graphs := []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"chain10", workload.Chain(10, cfg)},
		{"star8", workload.Star(8, cfg)},
		{"clique8", workload.Clique(8, cfg)},
	}
	for _, tc := range graphs {
		tc.g.Freeze()
		p, stats, err := iterdp.Solve(tc.g, iterdp.Options{
			Model: model,
			Exact: exactSolver(model, pool),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkPlan(t, tc.name, tc.g, p)
		opt, oerr := oracle.Optimal(tc.g, model)
		if oerr != nil {
			t.Fatalf("%s: oracle: %v", tc.name, oerr)
		}
		if !costsMatch(p.Cost, opt.Cost) {
			t.Fatalf("%s: tier cost %.10g != optimum %.10g", tc.name, p.Cost, opt.Cost)
		}
		if stats.Rounds != 0 || stats.Subproblems != 1 {
			t.Fatalf("%s: want a single final enumeration, got rounds=%d subproblems=%d",
				tc.name, stats.Rounds, stats.Subproblems)
		}
	}
}

// TestClusterSizeSweep: the tier must produce valid full-coverage plans
// for every permitted cluster size, and larger clusters must never
// produce a worse plan on a chain (more of the chain is optimized
// exactly at once).
func TestClusterSizeSweep(t *testing.T) {
	cfg := workload.LargeConfig()
	model := cost.Default()
	g := workload.Chain(80, cfg)
	g.Freeze()
	pool := &memo.Pool{}
	prev := math.Inf(1)
	for _, cs := range []int{2, 4, 8, 12, 16, 20} {
		p, _, err := iterdp.Solve(g, iterdp.Options{
			ClusterSize: cs,
			Model:       model,
			Exact:       exactSolver(model, pool),
		})
		if err != nil {
			t.Fatalf("cs=%d: %v", cs, err)
		}
		checkPlan(t, "chain80", g, p)
		// Not strictly monotone in general, but a sanity envelope: the
		// plan must never be wildly worse than a smaller cluster size.
		if p.Cost > prev*4 {
			t.Fatalf("cs=%d: cost %.6g regressed vs smaller clusters %.6g", cs, p.Cost, prev)
		}
		if p.Cost < prev {
			prev = p.Cost
		}
	}
}

// TestUnsupportedGraphs: non-inner operators and dependent relations
// are outside the tier's scope and must degrade through the budget
// sentinel so the planner's greedy fallback picks them up.
func TestUnsupportedGraphs(t *testing.T) {
	model := cost.Default()
	pool := &memo.Pool{}
	exact := exactSolver(model, pool)

	outer := hypergraph.New()
	for i := 0; i < 66; i++ {
		outer.AddRelation("", 100)
	}
	for i := 0; i < 65; i++ {
		op := algebra.Join
		if i == 30 {
			op = algebra.LeftOuter
		}
		outer.AddEdge(hypergraph.Edge{
			U: bitset.Single(i), V: bitset.Single(i + 1), Sel: 0.1, Op: op,
		})
	}
	outer.Freeze()
	_, _, err := iterdp.Solve(outer, iterdp.Options{Model: model, Exact: exact})
	if !errors.Is(err, iterdp.ErrUnsupported) {
		t.Fatalf("outer-join graph: got %v, want ErrUnsupported", err)
	}
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("ErrUnsupported must wrap dp.ErrBudgetExhausted for the greedy fallback, got %v", err)
	}
}

// TestStalledGraphs: a graph the clustering cannot compress (here: no
// edges at all) must fail with ErrStalled, again wrapping the budget
// sentinel.
func TestStalledGraphs(t *testing.T) {
	model := cost.Default()
	g := hypergraph.New()
	for i := 0; i < 70; i++ {
		g.AddRelation("", 50)
	}
	g.Freeze()
	_, _, err := iterdp.Solve(g, iterdp.Options{
		Model: model,
		Exact: exactSolver(model, &memo.Pool{}),
	})
	if !errors.Is(err, iterdp.ErrStalled) {
		t.Fatalf("edgeless graph: got %v, want ErrStalled", err)
	}
	if !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("ErrStalled must wrap dp.ErrBudgetExhausted, got %v", err)
	}
}

// TestCancellation: a canceled context aborts between compression
// rounds.
func TestCancellation(t *testing.T) {
	cfg := workload.LargeConfig()
	g := workload.Chain(100, cfg)
	g.Freeze()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := iterdp.Solve(g, iterdp.Options{
		Model: cost.Default(),
		Ctx:   ctx,
		Exact: exactSolver(cost.Default(), &memo.Pool{}),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestHyperedgeDegradation: hyperedges that span clusters degrade to
// simple proxies during compression, but the final plan still covers
// everything and applies every predicate in the recost.
func TestHyperedgeDegradation(t *testing.T) {
	cfg := workload.LargeConfig()
	model := cost.Default()
	g := workload.StarHyper(80, 3, cfg)
	g.Freeze()
	p, _, err := iterdp.Solve(g, iterdp.Options{
		Model: model,
		Exact: exactSolver(model, &memo.Pool{}),
	})
	if err != nil {
		// Hyperedge-only connectivity can legitimately stall; that must
		// route to the fallback sentinel, not crash.
		if !errors.Is(err, dp.ErrBudgetExhausted) {
			t.Fatalf("hyper star: got %v, want success or a budget-wrapped error", err)
		}
		return
	}
	checkPlan(t, "starhyper80", g, p)
}

// TestOverflowingCardinalities pins the vertex-cardinality clamp: a
// compound vertex's estimate is an unclamped product, so clustering
// large relations overflows float64 to +Inf, which
// hypergraph.AddRelation rejects with a panic when the next level is
// built. Both graphs have finite, valid inputs: 1e30-row relations
// joined without reduction overflow in round 1, and a 300-relation
// DefaultConfig chain overflows in a later round. The tier must clamp
// and return a complete plan. The recosted figures may still be
// infinite; that is the open finite-cost item, not this test's concern.
func TestOverflowingCardinalities(t *testing.T) {
	huge := hypergraph.New()
	for i := 0; i < 100; i++ {
		huge.AddRelation("", 1e30)
	}
	for i := 0; i+1 < 100; i++ {
		huge.AddSimpleEdge(i, i+1, 1)
	}
	model := cost.Default()
	for _, tc := range []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"chain100-card1e30", huge},
		{"chain300-default", workload.Chain(300, workload.DefaultConfig())},
	} {
		tc.g.Freeze()
		p, stats, err := iterdp.Solve(tc.g, iterdp.Options{
			Model: model,
			Exact: exactSolver(model, &memo.Pool{}),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid plan: %v", tc.name, err)
		}
		if !p.Rels.Equal(tc.g.AllNodes()) || p.Relations() != tc.g.NumRels() {
			t.Fatalf("%s: plan covers %v (%d relations), want all %d",
				tc.name, p.Rels, p.Relations(), tc.g.NumRels())
		}
		if stats.Rounds == 0 {
			t.Fatalf("%s: no compression round ran", tc.name)
		}
		if !math.IsInf(p.Card, 1) {
			t.Errorf("%s: recosted root card %g, want the overflowed +Inf this test exercises", tc.name, p.Card)
		}
	}
}

// TestDenseSelectivityUnderflow pins the compression clamp: a clique
// beyond the 64-relation ceiling collapses hundreds of parallel edges
// into each compound pair, and the raw selectivity product underflows
// float64 to exactly 0 — which hypergraph.AddEdge rejects with a panic.
// The tier must clamp and keep planning instead.
func TestDenseSelectivityUnderflow(t *testing.T) {
	cfg := workload.LargeConfig()
	model := cost.Default()
	for _, n := range []int{66, 80} {
		g := workload.Clique(n, cfg)
		g.Freeze()
		p, stats, err := iterdp.Solve(g, iterdp.Options{
			Model: model,
			Exact: exactSolver(model, &memo.Pool{}),
		})
		if err != nil {
			t.Fatalf("clique%d: %v", n, err)
		}
		checkPlan(t, fmt.Sprintf("clique%d", n), g, p)
		if stats.Subproblems == 0 {
			t.Errorf("clique%d: no subproblems recorded", n)
		}
	}
}
