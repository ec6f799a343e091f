package main

import (
	"fmt"
	"math"
	"slices"

	"repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/goo"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/service"
)

// verifyCount is how many documents of each pool the gate checks after
// every window. Pools are ordered round-robin over family × size, so the
// first 64 documents cover every cell of every grid. A variable so that
// tests can check fewer.
var verifyCount = 64

// qualitySeed generates each workload's quality corpus: verifyCount
// documents of its grid, the same for every -seed, that the gate checks
// beside the run's own sample and that plan_cost_ratio is measured on.
// Across seeds the drawn documents alone move lib-large's ratio by ~6%;
// over a fixed corpus the ratio moves only when the plans do, so its
// bound can be tight.
const qualitySeed = 2008

// planOut is a plan as the gate sees it, from either the library or the
// wire.
type planOut struct {
	alg      string // algorithm that produced the plan
	fallback bool   // a budget trip substituted a greedy plan
	cost     float64
	card     float64
	leaves   []int     // relation index of every leaf
	values   []float64 // every node's cost and cardinality
}

func libPlanOut(r *repro.Result) planOut {
	out := planOut{alg: r.Algorithm.String(), fallback: r.Stats.FallbackGreedy, cost: r.Cost(), card: r.Cardinality()}
	r.Plan.Walk(func(n *plan.Node) {
		out.values = append(out.values, n.Cost, n.Card)
		if n.IsLeaf() {
			out.leaves = append(out.leaves, n.Rel)
		}
	})
	return out
}

func wirePlanOut(r *service.PlanResponse) planOut {
	out := planOut{alg: r.Algorithm, fallback: r.Stats.FallbackGreedy, cost: r.Cost, card: r.Cardinality}
	var walk func(n *service.PlanNodeJSON)
	walk = func(n *service.PlanNodeJSON) {
		if n == nil {
			return
		}
		out.values = append(out.values, n.Cost, n.Card)
		if n.Rel != nil {
			out.leaves = append(out.leaves, *n.Rel)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(r.Plan)
	return out
}

// check applies the gate to one plan of a document with rels relations
// whose reference cost is ref: the plan covers each relation exactly
// once, every cost and cardinality is finite and non-negative, the root's
// are positive, and an exact-routed plan costs the reference optimum
// within 1e-9 relative.
func check(out planOut, rels int, ref float64) error {
	seen := make([]bool, rels)
	for _, r := range out.leaves {
		if r < 0 || r >= rels || seen[r] {
			return fmt.Errorf("plan leaves %v do not cover %d relations exactly once", out.leaves, rels)
		}
		seen[r] = true
	}
	if len(out.leaves) != rels {
		return fmt.Errorf("plan has %d leaves for %d relations", len(out.leaves), rels)
	}
	for _, v := range out.values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("plan carries a cost or cardinality of %g", v)
		}
	}
	if !(out.cost > 0) || !(out.card > 0) {
		return fmt.Errorf("plan cost %g and cardinality %g must both be positive", out.cost, out.card)
	}
	if exactAlgs[out.alg] && !out.fallback && math.Abs(out.cost-ref) > 1e-9*ref {
		return fmt.Errorf("%s plan costs %.17g, the reference optimum is %.17g", out.alg, out.cost, ref)
	}
	return nil
}

// gate is the verification gate over a run's sample and the quality
// corpus; ref gives a document's reference cost.
type gate struct {
	items  []item // the sample, then the corpus
	corpus int    // index of the corpus's first document in items
	ref    func(item) (float64, error)
	refs   map[int]float64 // memoized references, by item index
}

func newGate(sample, corpus []item, ref func(item) (float64, error)) *gate {
	return &gate{items: slices.Concat(sample, corpus), corpus: len(sample), ref: ref, refs: map[int]float64{}}
}

// run checks every document, with plan producing the system's plan for
// it. It returns the cost ratios (plan ÷ reference) over the corpus and
// one message per violation.
func (g *gate) run(plan func(item) (planOut, error)) (ratios []float64, fails []string) {
	for i, it := range g.items {
		ref, ok := g.refs[i]
		if !ok {
			var err error
			if ref, err = g.ref(it); err != nil {
				fails = append(fails, fmt.Sprintf("%v: reference: %v", it.cell, err))
				continue
			}
			g.refs[i] = ref
		}
		out, err := plan(it)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%v: %v", it.cell, err))
			continue
		}
		if err := check(out, len(it.doc.Relations), ref); err != nil {
			fails = append(fails, fmt.Sprintf("%v: %v", it.cell, err))
			continue
		}
		if i >= g.corpus {
			ratios = append(ratios, out.cost/ref)
		}
	}
	return ratios, fails
}

// model is the production cost model (dpserved -cost cout).
var model cost.Model = cost.Cout{}

// exactRef is the reference optimum: the brute-force oracle for graph
// documents (all inner joins) of at most oracle.MaxRels relations,
// serial uncached DPhyp otherwise (operator trees, larger graphs).
func exactRef(it item) (float64, error) {
	g, err := docGraph(it.doc)
	if err != nil {
		return 0, err
	}
	g.Freeze()
	if it.doc.Tree == nil && g.NumRels() <= oracle.MaxRels {
		p, err := oracle.Optimal(g, model)
		if err != nil {
			return 0, err
		}
		return p.Cost, nil
	}
	p, _, err := core.Solve(g, core.Options{Model: model, Parallelism: 1})
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// largeRef is lib-large's reference: DPhyp where it is affordable
// (chains and cycles of at most 48 relations), a plain GOO plan
// elsewhere, so plan_cost_ratio prices what routing gives up against
// exact DP and what IterDP gains over greedy.
func largeRef(it item) (float64, error) {
	if (it.cell.family == "chain" || it.cell.family == "cycle") && it.cell.n <= 48 {
		return exactRef(it)
	}
	g, err := docGraph(it.doc)
	if err != nil {
		return 0, err
	}
	g.Freeze()
	p, _, err := goo.Solve(g, goo.Options{Model: model})
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}
