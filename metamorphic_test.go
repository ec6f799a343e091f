package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// relabel returns a copy of g whose relation i is relation perm[i] and
// whose edges are added in the order given by order. Free sets are
// relabelled with their relations.
func relabel(g *Graph, perm, order []int) *Graph {
	mapSet := func(s bitset.Set) bitset.Set {
		var out bitset.Set
		for x := s.NextElem(0); x >= 0; x = s.NextElem(x + 1) {
			out = out.Add(perm[x])
		}
		return out
	}
	n := g.NumRels()
	old := make([]int, n)
	for i, p := range perm {
		old[p] = i
	}
	h := hypergraph.New()
	for i := 0; i < n; i++ {
		r := g.Relation(old[i])
		h.AddRelation(r.Name, r.Card)
	}
	for i := 0; i < n; i++ {
		if free := g.Relation(old[i]).Free; !free.IsEmpty() {
			h.SetFree(i, mapSet(free))
		}
	}
	for _, i := range order {
		e := g.Edge(i)
		h.AddEdge(hypergraph.Edge{U: mapSet(e.U), V: mapSet(e.V), W: mapSet(e.W), Sel: e.Sel, Op: e.Op, Label: e.Label})
	}
	return h
}

// TestRelabelingKeepsOptimalCost is a metamorphic test of every exact
// solver: renumbering the relations and shuffling the edge order changes
// the enumeration order, the tie-breaks and the order in which the
// estimates multiply, but not the optimum, so each solver's optimal cost
// must stay equal within 1e-9 relative, and all solvers must agree.
func TestRelabelingKeepsOptimalCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	cfg := workload.DefaultConfig()
	type testCase struct {
		name string
		g    *Graph
	}
	var cases []testCase
	graphs := 12
	if testing.Short() {
		graphs = 4
	}
	for i := 0; i < graphs; i++ {
		n := 5 + rng.Intn(5)
		cases = append(cases,
			testCase{fmt.Sprintf("simple%d", i), workload.RandomSimple(rng, n, rng.Intn(5), cfg)},
			testCase{fmt.Sprintf("hyper%d", i), workload.RandomHyper(rng, n, 1+rng.Intn(3), cfg)},
		)
		// One dependent relation under inner joins always leaves a valid
		// orientation for every pair, so the graph stays plannable.
		dep := workload.RandomSimple(rng, n, rng.Intn(3), cfg)
		rel := rng.Intn(n)
		dep.SetFree(rel, bitset.Single((rel+1+rng.Intn(n-1))%n))
		cases = append(cases, testCase{fmt.Sprintf("dependent%d", i), dep})
	}
	cases = append(cases, testCase{"clique12", workload.Clique(12, cfg)})

	ctx := context.Background()
	p := NewPlanner(WithPlanCacheSize(0))
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, c := range cases {
		h := relabel(c.g, rng.Perm(c.g.NumRels()), rng.Perm(c.g.NumEdges()))
		algs := exactSolvers
		switch {
		case c.name == "clique12":
			algs = []Algorithm{DPhyp}
		case c.g.HasHyperedges():
			algs = []Algorithm{DPhyp, DPsize, DPsub, TopDown}
		}
		var optimum float64
		for i, alg := range algs {
			r0, err := p.PlanGraph(ctx, c.g, WithAlgorithm(alg))
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, alg, err)
			}
			r1, err := p.PlanGraph(ctx, h, WithAlgorithm(alg))
			if err != nil {
				t.Fatalf("%s %v relabelled: %v", c.name, alg, err)
			}
			if !near(r0.Cost(), r1.Cost()) {
				t.Errorf("%s %v: cost %g, relabelled %g", c.name, alg, r0.Cost(), r1.Cost())
			}
			if i == 0 {
				optimum = r0.Cost()
			} else if !near(r0.Cost(), optimum) {
				t.Errorf("%s %v: cost %g, %v found %g", c.name, alg, r0.Cost(), algs[0], optimum)
			}
		}
	}
}
