// Execution demonstrates the verification loop behind the repository's
// property tests: a query with non-inner joins is (1) evaluated directly
// from its initial operator tree and (2) optimized by DPhyp over the
// TES-derived hypergraph and then executed — and the two results are
// compared tuple by tuple.
//
// The query: customers, their orders (left outer join — keep customers
// without orders), restricted to customers NOT on a blocklist (antijoin).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/exec"
	"repro/internal/optree"
)

func main() {
	// Columns: customer(c0 = id), orders(c0 = customer id), block(c0 = id).
	cID := exec.ColID{Rel: 0, Col: 0}
	oCust := exec.ColID{Rel: 1, Col: 0}
	bID := exec.ColID{Rel: 2, Col: 0}

	pCO := exec.SumEq{Left: []exec.ColID{cID}, Right: []exec.ColID{oCust}}
	pCB := exec.SumEq{Left: []exec.ColID{cID}, Right: []exec.ColID{bID}}

	// Initial tree: (customer ⟕ orders) ▷ blocklist.
	lo := optree.NewOp(algebra.LeftOuter, optree.NewLeaf(0), optree.NewLeaf(1),
		optree.Predicate{
			Tables:  bitset.New(0, 1),
			Sel:     0.3,
			Label:   "c.id = o.cust",
			Payload: exec.JoinSpec{Preds: []exec.Pred{pCO}},
		})
	root := optree.NewOp(algebra.AntiJoin, lo, optree.NewLeaf(2),
		optree.Predicate{
			Tables:  bitset.New(0, 2),
			Sel:     0.25,
			Label:   "NOT EXISTS blocklist",
			Payload: exec.JoinSpec{Preds: []exec.Pred{pCB}},
		})
	rels := []optree.RelInfo{
		{Name: "customer", Card: 4},
		{Name: "orders", Card: 5},
		{Name: "blocklist", Card: 2},
	}

	rows := func(vals ...int64) []exec.Row {
		out := make([]exec.Row, len(vals))
		for i, v := range vals {
			out[i] = exec.Row{exec.V(v)}
		}
		return out
	}
	db := &exec.DB{Sources: []exec.Source{
		&exec.BaseTable{RelID: 0, NumCols: 1, Data: rows(1, 2, 3, 4)},    // customers
		&exec.BaseTable{RelID: 1, NumCols: 1, Data: rows(1, 1, 3, 9, 9)}, // orders
		&exec.BaseTable{RelID: 2, NumCols: 1, Data: rows(2, 9)},          // blocklist
	}}

	fmt.Println("initial tree:", root)
	refPlan, err := exec.FromOpTree(root, db)
	must(err)
	ref, err := exec.Run(refPlan)
	must(err)
	fmt.Println("\ndirect evaluation of the initial tree:")
	fmt.Println(ref.Canonical())

	tr, err := optree.Analyze(root, rels, optree.Conservative)
	must(err)
	g := tr.Hypergraph(optree.TESEdges)
	p, stats, err := core.Solve(g, dp.Options{Limits: dp.Limits{Ctx: context.Background()}})
	must(err)
	fmt.Println("\nDPhyp-optimized plan over the TES-derived hypergraph:")
	fmt.Print(p)
	fmt.Printf("(%d csg-cmp-pairs considered)\n", stats.CsgCmpPairs)

	ep, err := exec.FromPlan(p, g, db)
	must(err)
	got, err := exec.Run(ep)
	must(err)
	fmt.Println("\nexecution of the optimized plan:")
	fmt.Println(got.Canonical())

	if exec.Equal(ref, got) {
		fmt.Println("\nresults are identical — the reordering is semantics-preserving.")
	} else {
		fmt.Println("\nRESULTS DIVERGE — this would be an optimizer bug.")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
