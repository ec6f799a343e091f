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

// genGraph derives a deterministic random graph of the given shape
// class from seed. Sizes stay within the oracle's brute-force range
// (cliques are capped tighter — their Θ(3ⁿ) oracle walk dominates the
// suite's runtime).
func genGraph(seed int64, class int) *hypergraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.DefaultConfig()
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

func isSimple(g *hypergraph.Graph) bool {
	for i := 0; i < g.NumEdges(); i++ {
		if !g.Edge(i).Simple() {
			return false
		}
	}
	return true
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
// the oracle optimum.
func checkSolver(t *testing.T, tag string, g *hypergraph.Graph, m cost.Model,
	name string, solve solverFn, optimal *plan.Node) {
	t.Helper()
	p, _, err := solve(g, m)
	if err != nil {
		t.Errorf("%s: %s/%s failed: %v", tag, name, m.Name(), err)
		return
	}
	if err := p.Validate(); err != nil {
		t.Errorf("%s: %s/%s returned invalid plan: %v", tag, name, m.Name(), err)
		return
	}
	if !p.Rels.Equal(g.AllNodes()) {
		t.Errorf("%s: %s/%s plan covers %v, want %v", tag, name, m.Name(), p.Rels, g.AllNodes())
		return
	}
	if !costsMatch(p.Cost, optimal.Cost) {
		t.Errorf("%s: %s/%s cost %.10g != optimal %.10g\nsolver plan:\n%s\noracle plan:\n%s",
			tag, name, m.Name(), p.Cost, optimal.Cost, p, optimal)
	}
}

// TestDifferentialSolversAgainstOracle is the headline suite: ~500
// seeded random graphs spanning every shape class, every exact solver
// under every cost model, all asserted equal to the brute-force
// optimum. Greedy (GOO) rides along with the weaker assertion that it
// never beats the optimum (it must not — that would mean the exact
// space missed a plan) and always returns a valid plan.
func TestDifferentialSolversAgainstOracle(t *testing.T) {
	graphs := 500
	if testing.Short() {
		graphs = 100
	}
	for i := 0; i < graphs; i++ {
		seed := int64(1000 + i)
		class := i % shapeClassCount
		g := genGraph(seed, class)
		g.Freeze()
		simple := isSimple(g)
		tag := fmt.Sprintf("graph %d (seed %d class %d, n=%d)", i, seed, class, g.NumRels())

		for _, m := range allModels {
			optimal, err := Optimal(g, m)
			if err != nil {
				t.Fatalf("%s: oracle failed: %v", tag, err)
			}
			for _, s := range exactSolvers {
				if s.needsSimple && !simple {
					continue
				}
				checkSolver(t, tag, g, m, s.name, s.solve, optimal)
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
