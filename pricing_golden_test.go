package repro

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/optree"
	"repro/internal/workload"
)

var updatePricingGolden = flag.Bool("update-pricing-golden", false,
	"rewrite testdata/pricing.golden from the current plan builder")

const pricingGoldenFile = "testdata/pricing.golden"

// pricingCase is one document of the pricing golden corpus and the
// solvers and worker counts that plan it.
type pricingCase struct {
	name    string
	doc     *QueryJSON
	algs    []Algorithm
	workers []int
	opts    []Option
}

// exactSolvers are the exact enumerators; DPccp accepts simple graphs
// only, and pricingCorpus drops it for every other document.
var exactSolvers = []Algorithm{DPhyp, DPsize, DPsub, DPccp, TopDown}

// treeJSON renders a workload operator tree as the document a client
// would send.
func treeJSON(root *optree.Node, rels []optree.RelInfo) *QueryJSON {
	doc := &QueryJSON{}
	for _, r := range rels {
		doc.Relations = append(doc.Relations, RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	var conv func(n *optree.Node) *TreeJSON
	conv = func(n *optree.Node) *TreeJSON {
		if n.IsLeaf() {
			rel := n.Rel
			return &TreeJSON{Rel: &rel}
		}
		return &TreeJSON{
			Op: n.Op.String(), Left: conv(n.Left), Right: conv(n.Right),
			Pred: n.Pred.Tables.Elems(), Sel: n.Pred.Sel, Label: n.Pred.Label,
		}
	}
	doc.Tree = conv(root)
	return doc
}

// simpleGraph reports whether every edge of g is a simple edge, the
// input class DPccp accepts.
func simpleGraph(g *Graph) bool {
	for i := 0; i < g.NumEdges(); i++ {
		if !g.Edge(i).Simple() {
			return false
		}
	}
	return true
}

// pricingCorpus is the golden corpus: one document per lib-cold family
// planned by every exact solver that accepts it at 1 and 2 workers; the
// densest exact-routed graph; a 100-relation chain, whose sets are wider
// than one word, planned by DPhyp directly and through SolverAuto
// (IterDP); a generate-and-test run, the only mode that hands the filter
// flipped edge references; and graphs with dependent relations, which
// take the dependency checks and the dependent join variants.
func pricingCorpus(t *testing.T) []pricingCase {
	cfg := workload.DefaultConfig()
	families := []struct {
		name string
		doc  *QueryJSON
	}{
		{"chain12", graphJSON(workload.Chain(12, cfg))},
		{"cycle12", graphJSON(workload.Cycle(12, cfg))},
		{"star10", graphJSON(workload.Star(10, cfg))},
		{"clique8", graphJSON(workload.Clique(8, cfg))},
		{"grid3x4", graphJSON(workload.Grid(3, 4, cfg))},
		{"cycle-hyper10/2", graphJSON(workload.CycleHyper(10, 2, cfg))},
		{"star-hyper8/3", graphJSON(workload.StarHyper(8, 3, cfg))},
		{"star-antijoin10/5", treeJSON(workload.StarTree(10, 5, cfg))},
		{"cycle-outer10/5", treeJSON(workload.CycleTree(10, 5, cfg))},
	}
	ctx := context.Background()
	probe := NewPlanner(WithPlanCacheSize(0), WithAlgorithm(Greedy))
	var cases []pricingCase
	for _, f := range families {
		r, err := probe.PlanJSON(ctx, f.doc)
		if err != nil {
			t.Fatalf("%s: deriving the graph: %v", f.name, err)
		}
		algs := exactSolvers
		if !simpleGraph(r.Graph) {
			algs = []Algorithm{DPhyp, DPsize, DPsub, TopDown}
		}
		cases = append(cases, pricingCase{name: f.name, doc: f.doc, algs: algs, workers: []int{1, 2}})
	}

	// Dependent relations take the dependency checks and the dependent
	// join variants: one under inner joins, and two, which reject
	// orientations in both directions.
	dep1 := workload.Star(10, cfg)
	dep1.SetFree(4, bitset.New(0))
	dep2 := workload.Chain(10, cfg)
	dep2.SetFree(7, bitset.New(3))
	dep2.SetFree(6, bitset.New(2))

	cases = append(cases,
		pricingCase{name: "clique12", doc: graphJSON(workload.Clique(12, cfg)), algs: []Algorithm{DPhyp, DPsub}, workers: []int{1, 2}},
		pricingCase{name: "chain100", doc: graphJSON(workload.Chain(100, workload.LargeConfig())), algs: []Algorithm{DPhyp, SolverAuto}, workers: []int{1}},
		pricingCase{name: "star-antijoin10/5 generate-and-test", doc: treeJSON(workload.StarTree(10, 5, cfg)), algs: []Algorithm{DPhyp}, workers: []int{1}, opts: []Option{WithGenerateAndTest()}},
		pricingCase{name: "star10 dependent", doc: graphJSON(dep1), algs: exactSolvers, workers: []int{1, 2}},
		pricingCase{name: "chain10 two dependents", doc: graphJSON(dep2), algs: exactSolvers, workers: []int{1, 2}},
	)
	return cases
}

// renderPricing writes one plan and the builder's counters in the golden
// format: estimates as exact float bits, one node per line.
func renderPricing(b *strings.Builder, r *Result) {
	st := r.Stats
	fmt.Fprintf(b, "algorithm=%v pairs=%d costed=%d invalid=%d filter=%d ambiguous=%d\n",
		r.Algorithm, st.CsgCmpPairs, st.CostedPlans, st.InvalidReject, st.FilterReject, st.AmbiguousOps)
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		b.WriteString(strings.Repeat(" ", depth))
		if n.IsLeaf() {
			fmt.Fprintf(b, "R%d card=%016x\n", n.Rel, math.Float64bits(n.Card))
			return
		}
		fmt.Fprintf(b, "%v/%v %v card=%016x cost=%016x edges=%v\n",
			n.Op, n.Phys, n.Rels, math.Float64bits(n.Card), math.Float64bits(n.Cost), n.Edges)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(r.Plan, 0)
}

// TestPricingGolden pins what the plan builder produces for every
// admitted csg-cmp-pair: the plan tree, the edges applied at each node,
// cardinality and cost to the last bit, and the builder's counters. The
// golden file was captured before the builder's per-pair work was
// restructured; every worker count must render the same block. Rewrite
// it with -update-pricing-golden only when a change is meant to alter
// plans or estimates.
func TestPricingGolden(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	for _, c := range pricingCorpus(t) {
		for _, alg := range c.algs {
			var want string
			for _, w := range c.workers {
				p := NewPlanner(WithPlanCacheSize(0), WithParallelism(w))
				r, err := p.PlanJSON(ctx, c.doc, append([]Option{WithAlgorithm(alg)}, c.opts...)...)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", c.name, alg, w, err)
				}
				var b strings.Builder
				renderPricing(&b, r)
				if w == c.workers[0] {
					want = b.String()
					fmt.Fprintf(&out, "== %s %v\n%s", c.name, alg, want)
				} else if b.String() != want {
					t.Errorf("%s %v: %d workers render differently from %d:\n%s\nwant:\n%s",
						c.name, alg, w, c.workers[0], b.String(), want)
				}
			}
		}
	}
	if *updatePricingGolden {
		if err := os.WriteFile(pricingGoldenFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(pricingGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(golden) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		section := ""
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if strings.HasPrefix(wl[i], "== ") {
				section = wl[i]
			}
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d (%s):\n got %s\nwant %s", pricingGoldenFile, i+1, section, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", pricingGoldenFile, len(gl), len(wl))
	}
}
