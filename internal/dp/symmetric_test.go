package dp_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/goo"
	"repro/internal/plan"
	"repro/internal/workload"
)

// innerGraphs are inner-join graphs of each workload family: chain,
// cycle, star, clique, grid and a cycle with hyperedges.
func innerGraphs() []namedGraph {
	cfg := workload.DefaultConfig()
	return []namedGraph{
		{"chain10", workload.Chain(10, cfg)},
		{"cycle10", workload.Cycle(10, cfg)},
		{"star10", workload.Star(10, cfg)},
		{"clique8", workload.Clique(8, cfg)},
		{"grid3x4", workload.Grid(3, 4, cfg)},
		{"cycle-hyper10/2", workload.CycleHyper(10, 2, cfg)},
	}
}

// undeclared forwards JoinCost and Name to m and counts the JoinCost
// calls. It does not declare cost.Symmetric, so the plan builder prices
// both orientations of every pair with a call each.
type undeclared struct {
	m     cost.Model
	calls *int
}

func (w undeclared) JoinCost(op algebra.Op, lcost, rcost, lcard, rcard, card float64) float64 {
	*w.calls++
	return w.m.JoinCost(op, lcost, rcost, lcard, rcard, card)
}

func (w undeclared) Name() string { return w.m.Name() }

// declared is undeclared declaring cost.Symmetric.
type declared struct{ undeclared }

func (declared) SymmetricJoin() {}

// TestCostCallsPerPair pins §2.2's yardstick, "the minimal number of
// cost function calls of any dynamic programming algorithm is exactly
// the number of csg-cmp-pairs": on inner-join graphs, every exact
// solver calls a model that declares cost.Symmetric once per
// csg-cmp-pair, and a model that does not twice. Both orientations
// count as candidate plans either way, so CostedPlans is twice the
// pairs.
func TestCostCallsPerPair(t *testing.T) {
	for _, ig := range innerGraphs() {
		g := ig.g
		g.Freeze()
		for _, s := range exactSolvers {
			if s.name == "dpccp" && g.HasHyperedges() {
				continue
			}
			t.Run(ig.name+"/"+s.name, func(t *testing.T) {
				calls := 0
				counted := undeclared{cost.Cout{}, &calls}
				for _, c := range []struct {
					name     string
					model    cost.Model
					perPairs int
				}{
					{"declared", declared{counted}, 1},
					{"undeclared", counted, 2},
				} {
					calls = 0
					_, st, err := s.solve(g, dp.Options{Model: c.model})
					if err != nil {
						t.Fatal(err)
					}
					if st.CsgCmpPairs == 0 || calls != c.perPairs*st.CsgCmpPairs || st.CostedPlans != 2*st.CsgCmpPairs {
						t.Errorf("%s model: %d JoinCost calls and %d costed plans for %d csg-cmp-pairs, want %d and %d",
							c.name, calls, st.CostedPlans, st.CsgCmpPairs, c.perPairs*st.CsgCmpPairs, 2*st.CsgCmpPairs)
					}
				}
			})
		}
	}
}

// nanCout is C_out returning NaN for about one join in seven. It
// decides from the output cardinality alone, so it is symmetric and
// declares it.
type nanCout struct{}

func (nanCout) JoinCost(op algebra.Op, lcost, rcost, lcard, rcard, card float64) float64 {
	if math.Float64bits(card)%7 == 0 {
		return math.NaN()
	}
	return cost.Cout{}.JoinCost(op, lcost, rcost, lcard, rcard, card)
}

func (nanCout) Name() string { return "Cout-NaN" }

func (nanCout) SymmetricJoin() {}

// TestSymmetricPricingMatchesTwoCalls plans each graph with every
// solver twice, under a model that declares cost.Symmetric and under
// undeclared over it, and requires identical trees, operators, physical
// operators, edge lists, cardinality and cost bits, errors and Stats.
// The graphs cover the inner-join families, the kernel corpus' graphs of
// up to 10 relations (hyperedges, non-inner operators, dependent
// relations), costs that overflow to +Inf, NaN costs, all-tie graphs and
// a costed-plan budget that trips between a pair's two orientations.
func TestSymmetricPricingMatchesTwoCalls(t *testing.T) {
	graphs := innerGraphs()
	for _, kg := range kernelGraphs() {
		if kg.g.NumRels() <= 10 {
			graphs = append(graphs, kg)
		}
	}
	// With 1e30-row relations the estimates of large sets overflow, so
	// their plans cost +Inf and tie. With identical relations and
	// selectivities many plans of a set cost the same, and the memo's
	// tie-break picks among them.
	inf := workload.Config{MinCard: 1e30, MaxCard: 1e30, MinSel: 0.5, MaxSel: 0.5}
	tie := workload.Config{MinCard: 10, MaxCard: 10, MinSel: 0.5, MaxSel: 0.5}
	graphs = append(graphs,
		namedGraph{"chain12-inf", workload.Chain(12, inf)},
		namedGraph{"clique8-tie", workload.Clique(8, tie)},
		namedGraph{"star9-tie", workload.Star(9, tie)},
		namedGraph{"grid3x4-tie", workload.Grid(3, 4, tie)},
	)

	solvers := append(slices.Clone(exactSolvers), []struct {
		name  string
		solve solveFunc
	}{{"goo", goo.Solve}, {"iterdp", iterDP}}...)
	models := []cost.Model{cost.Cout{}, cost.NestedLoop{}, nanCout{}}
	infCosts, nanCosts := 0, 0
	for _, gr := range graphs {
		g := gr.g
		g.Freeze()
		for _, s := range solvers {
			if s.name == "dpccp" && g.HasHyperedges() || s.name == "iterdp" && !innerOnly(g) {
				continue
			}
			t.Run(gr.name+"/"+s.name, func(t *testing.T) {
				for _, m := range models {
					for _, limits := range []dp.Limits{{}, {MaxCostedPlans: 101}} {
						p1, st1, err1 := s.solve(g, dp.Options{Model: m, Limits: limits})
						p2, st2, err2 := s.solve(g, dp.Options{Model: undeclared{m, new(int)}, Limits: limits})
						if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
							t.Fatalf("%s, %+v: errors %v and %v", m.Name(), limits, err1, err2)
						}
						if st1 != st2 {
							t.Errorf("%s, %+v: stats differ:\n one call  %+v\n two calls %+v", m.Name(), limits, st1, st2)
						}
						if err1 != nil {
							continue
						}
						if d := planDiff(p1, p2); d != "" {
							t.Errorf("%s: plans differ: %s", m.Name(), d)
						}
						switch {
						case math.IsInf(p1.Cost, 1):
							infCosts++
						case math.IsNaN(p1.Cost):
							nanCosts++
						}
					}
				}
			})
		}
	}
	if infCosts == 0 || nanCosts == 0 {
		t.Errorf("%d plans cost +Inf and %d NaN, want some of each", infCosts, nanCosts)
	}
}

// planDiff returns the first difference between p and q, or "" when
// they are identical to the bit.
func planDiff(p, q *plan.Node) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case p.Op != q.Op || p.Phys != q.Phys || p.Rel != q.Rel || !p.Rels.Equal(q.Rels):
		return p.Compact() + " vs " + q.Compact()
	case !same(p.Card, q.Card) || !same(p.Cost, q.Cost):
		return "card/cost bits at " + p.Rels.String()
	case !slices.Equal(p.Edges, q.Edges):
		return "edges at " + p.Rels.String()
	case p.IsLeaf():
		return ""
	}
	if d := planDiff(p.Left, q.Left); d != "" {
		return d
	}
	return planDiff(p.Right, q.Right)
}
