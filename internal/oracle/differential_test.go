package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/dpccp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// solverFn runs one exact enumerator under a cost model.
type solverFn func(*hypergraph.Graph, cost.Model) (*plan.Node, dp.Stats, error)

// exactSolvers are the five enumerators that must return cost-optimal
// plans. needsSimple marks solvers restricted to simple graphs.
var exactSolvers = []struct {
	name        string
	solve       solverFn
	needsSimple bool
}{
	{"dphyp", func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return core.Solve(g, dp.Options{Model: m})
	}, false},
	{"dpsize", func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return dpsize.Solve(g, dp.Options{Model: m})
	}, false},
	{"dpsub", func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return dpsub.Solve(g, dp.Options{Model: m})
	}, false},
	{"dpccp", func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return dpccp.Solve(g, dp.Options{Model: m})
	}, true},
	{"topdown", func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return topdown.Solve(g, dp.Options{Model: m})
	}, false},
}

// allModels are the cost models the differential suite sweeps.
var allModels = []cost.Model{
	cost.Cout{}, cost.NestedLoop{}, cost.Hash{}, cost.Cmm{}, cost.Physical{},
}

// shapeClassCount is the number of generator classes genGraph cycles
// through: chain, cycle, star, clique, grid, random simple, random
// hypergraph.
const shapeClassCount = 7

// corpora are the workload configs the differential suite draws its
// graphs from. Under DefaultConfig each join grows the cardinality
// about 1.4e3-fold, so a plan's cost is mostly its root cardinality,
// which every plan of a graph shares, and the 1e-9 comparison accepts
// many worse plans. LargeConfig's PK–FK selectivities keep the growth
// near one, where costs separate plans.
var corpora = []struct {
	name string
	cfg  workload.Config
}{
	{"default", workload.DefaultConfig()},
	{"large", workload.LargeConfig()},
}

// genGraph derives a deterministic random graph of the given shape
// class from seed, with cardinalities and selectivities drawn from cfg
// (whose Seed it replaces). Sizes stay within the oracle's brute-force
// range (cliques are capped tighter — their Θ(3ⁿ) oracle walk dominates
// the suite's runtime).
func genGraph(seed int64, class int, cfg workload.Config) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg.Seed = seed
	switch ((class % shapeClassCount) + shapeClassCount) % shapeClassCount {
	case 0:
		return workload.Chain(3+rng.Intn(8), cfg)
	case 1:
		return workload.Cycle(3+rng.Intn(8), cfg)
	case 2:
		return workload.Star(3+rng.Intn(8), cfg)
	case 3:
		return workload.Clique(3+rng.Intn(6), cfg)
	case 4:
		dims := [][2]int{{2, 2}, {2, 3}, {2, 4}, {2, 5}, {3, 3}}[rng.Intn(5)]
		return workload.Grid(dims[0], dims[1], cfg)
	case 5:
		return workload.RandomSimple(rng, 3+rng.Intn(8), rng.Intn(4), cfg)
	default:
		return workload.RandomHyper(rng, 3+rng.Intn(8), 1+rng.Intn(3), cfg)
	}
}

// costsMatch compares plan costs with a relative tolerance: equal-cost
// optima reached through different tree shapes may differ in the last
// few bits of floating-point accumulation.
func costsMatch(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

// checkSolver runs one solver under one model and compares it against
// the oracle optimum. It returns what differs, or nil.
func checkSolver(g *hypergraph.Graph, m cost.Model, name string, solve solverFn, optimal *plan.Node) error {
	p, _, err := solve(g, m)
	if err != nil {
		return fmt.Errorf("%s/%s failed: %v", name, m.Name(), err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s/%s returned invalid plan: %v", name, m.Name(), err)
	}
	if !p.Rels.Equal(g.AllNodes()) {
		return fmt.Errorf("%s/%s plan covers %v, want %v", name, m.Name(), p.Rels, g.AllNodes())
	}
	if !costsMatch(p.Cost, optimal.Cost) {
		return fmt.Errorf("%s/%s cost %.10g != optimal %.10g\nsolver plan:\n%s\noracle plan:\n%s",
			name, m.Name(), p.Cost, optimal.Cost, p, optimal)
	}
	return nil
}

// sweep draws the differential corpus from cfg, 500 seeded graphs (100
// with -short) cycling through the shape classes, and calls visit with
// every graph, cost model and the oracle's optimum.
func sweep(t *testing.T, cfg workload.Config,
	visit func(tag string, class int, g *hypergraph.Graph, m cost.Model, optimal *plan.Node)) {
	t.Helper()
	graphs := 500
	if testing.Short() {
		graphs = 100
	}
	for i := 0; i < graphs; i++ {
		seed := int64(1000 + i)
		class := i % shapeClassCount
		g := genGraph(seed, class, cfg)
		g.Freeze()
		tag := fmt.Sprintf("graph %d (seed %d class %d, n=%d)", i, seed, class, g.NumRels())
		for _, m := range allModels {
			optimal, err := Optimal(g, m)
			if err != nil {
				t.Fatalf("%s: oracle failed: %v", tag, err)
			}
			visit(tag, class, g, m, optimal)
		}
	}
}

// TestDifferentialSolversAgainstOracle is the headline suite: on each
// corpus, seeded random graphs spanning every shape class, every exact
// solver under every cost model, all asserted equal to the brute-force
// optimum. Greedy (GOO) rides along with the weaker assertion that it
// never beats the optimum (it must not — that would mean the exact
// space missed a plan) and always returns a valid plan.
func TestDifferentialSolversAgainstOracle(t *testing.T) {
	for _, c := range corpora {
		sweep(t, c.cfg, func(tag string, _ int, g *hypergraph.Graph, m cost.Model, optimal *plan.Node) {
			tag = c.name + " " + tag
			for _, s := range exactSolvers {
				if s.needsSimple && g.HasHyperedges() {
					continue
				}
				if err := checkSolver(g, m, s.name, s.solve, optimal); err != nil {
					t.Errorf("%s: %v", tag, err)
				}
			}
			gp, _, err := goo.Solve(g, dp.Options{Model: m})
			if err != nil {
				t.Errorf("%s: greedy/%s failed: %v", tag, m.Name(), err)
			} else if err := gp.Validate(); err != nil {
				t.Errorf("%s: greedy/%s invalid plan: %v", tag, m.Name(), err)
			} else if gp.Cost < optimal.Cost && !costsMatch(gp.Cost, optimal.Cost) {
				t.Errorf("%s: greedy/%s cost %.10g beats the 'optimal' %.10g — oracle bug",
					tag, m.Name(), gp.Cost, optimal.Cost)
			}
		})
	}
}

// TestDifferentialRejectsGreedy is the suite's mutation test: GOO, put
// in place of an exact solver, must fail checkSolver's comparison in
// every shape class of the LargeConfig corpus, or the suite could not
// tell a heuristic from an exact solver there.
func TestDifferentialRejectsGreedy(t *testing.T) {
	greedy := func(g *hypergraph.Graph, m cost.Model) (*plan.Node, dp.Stats, error) {
		return goo.Solve(g, dp.Options{Model: m})
	}
	var rejected, cases [shapeClassCount]int
	sweep(t, workload.LargeConfig(), func(_ string, class int, g *hypergraph.Graph, m cost.Model, optimal *plan.Node) {
		cases[class]++
		if checkSolver(g, m, "greedy", greedy, optimal) != nil {
			rejected[class]++
		}
	})
	for class := range rejected {
		t.Logf("class %d: GOO rejected in %d of %d cases", class, rejected[class], cases[class])
		if rejected[class] == 0 {
			t.Errorf("class %d: GOO passed all %d cost comparisons", class, cases[class])
		}
	}
}

// TestOracleAgreesWithItself: the oracle is deterministic and the
// memoized recursion returns a structurally valid tree.
func TestOracleAgreesWithItself(t *testing.T) {
	g := workload.CycleHyper(8, 1, workload.DefaultConfig())
	a, err := Optimal(g, cost.Cout{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimal(g, cost.Cout{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || !a.Equal(b) {
		t.Fatalf("oracle not deterministic: %g vs %g", a.Cost, b.Cost)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleRejectsUnsupported: clear errors instead of wrong answers.
func TestOracleRejectsUnsupported(t *testing.T) {
	if _, err := Optimal(hypergraph.New(), nil); err == nil {
		t.Error("empty graph must fail")
	}

	big := workload.Chain(MaxRels+1, workload.DefaultConfig())
	if _, err := Optimal(big, nil); err == nil {
		t.Error("oversized graph must fail")
	}

	outer := hypergraph.New()
	outer.AddRelation("A", 10)
	outer.AddRelation("B", 10)
	outer.AddEdge(hypergraph.Edge{
		U: bitset.Single(0), V: bitset.Single(1), Sel: 0.5, Op: algebra.LeftOuter,
	})
	if _, err := Optimal(outer, nil); err == nil {
		t.Error("non-inner graph must fail")
	}

	disc := hypergraph.New()
	disc.AddRelation("A", 10)
	disc.AddRelation("B", 10)
	if _, err := Optimal(disc, nil); err == nil {
		t.Error("disconnected graph must fail")
	}
}

// TestPhysicalAnnotationsPresent: under the Physical model every inner
// node of every solver's plan carries a concrete physical operator.
func TestPhysicalAnnotationsPresent(t *testing.T) {
	g := workload.Star(7, workload.DefaultConfig())
	for _, s := range exactSolvers {
		p, _, err := s.solve(g, cost.Physical{})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		p.Walk(func(n *plan.Node) {
			if !n.IsLeaf() && n.Phys == algebra.PhysNone {
				t.Errorf("%s: inner node %v lacks a physical operator", s.name, n.Rels)
			}
			if n.IsLeaf() && n.Phys != algebra.PhysNone {
				t.Errorf("%s: leaf R%d carries physical operator %s", s.name, n.Rel, n.Phys)
			}
		})
	}
	// Logical models leave nodes unannotated.
	p, _, err := core.Solve(g, dp.Options{Model: cost.Cout{}})
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if n.Phys != algebra.PhysNone {
			t.Errorf("Cout: node %v unexpectedly annotated %s", n.Rels, n.Phys)
		}
	})
}
