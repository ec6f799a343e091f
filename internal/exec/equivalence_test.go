package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/hypergraph"
	"repro/internal/optree"
	"repro/internal/plan"
	"repro/internal/topdown"
)

// treeGen builds random initial operator trees whose predicates respect
// two scoping rules the paper's framework assumes:
//
//   - visibility: an ancestor predicate references only columns that
//     survive projection (semijoins, antijoins, and nestjoins hide their
//     right side);
//   - simplification (§5.2): with all predicates strong, a predicate must
//     not reference the null-extended side of a descendant outer join —
//     otherwise the query is unsimplified (the outer join would collapse
//     to an inner join) and the conflict rules are not applicable.
//
// The generator therefore tracks the "strict" (non-nullable) visible
// tables and draws predicate references from them. Full outer joins make
// both sides nullable, so they are only placed at the root.
type treeGen struct {
	rng     *rand.Rand
	ops     []algebra.Op
	nextAgg int
}

func (g *treeGen) build(lo, hi int, isRoot bool) (node *optree.Node, strict bitset.Set) {
	if hi-lo == 1 {
		return optree.NewLeaf(lo), bitset.Single(lo)
	}
	split := lo + 1 + g.rng.Intn(hi-lo-1)
	left, lstrict := g.build(lo, split, false)
	right, rstrict := g.build(split, hi, false)

	op := g.ops[g.rng.Intn(len(g.ops))]
	for op == algebra.FullOuter && !isRoot {
		op = g.ops[g.rng.Intn(len(g.ops))]
	}
	a := pick(g.rng, lstrict)
	b := pick(g.rng, rstrict)
	pred := SumEq{Left: []ColID{{Rel: a, Col: 0}}, Right: []ColID{{Rel: b, Col: 0}}}
	spec := JoinSpec{Preds: []Pred{pred}}
	if op == algebra.NestJoin {
		spec.Agg = &Agg{Out: AggCol(g.nextAgg), Kind: Count}
		g.nextAgg++
	}
	node = optree.NewOp(op, left, right, optree.Predicate{
		Tables:  bitset.New(a, b),
		Sel:     0.1 + g.rng.Float64()*0.4,
		Label:   pred.String(),
		Payload: spec,
	})
	switch op {
	case algebra.Join:
		strict = lstrict.Union(rstrict)
	case algebra.LeftOuter:
		strict = lstrict // right side becomes nullable
	case algebra.FullOuter:
		strict = bitset.Empty // both sides nullable (root only)
	default: // semi, anti, nest project the right side away
		strict = lstrict
	}
	return node, strict
}

func pick(rng *rand.Rand, s bitset.Set) int {
	elems := s.Elems()
	return elems[rng.Intn(len(elems))]
}

// randomDB fills n single-column tables with small values so joins both
// hit and miss.
func randomDB(rng *rand.Rand, n int) *DB {
	db := &DB{Sources: make([]Source, n)}
	for i := 0; i < n; i++ {
		rows := make([]Row, 1+rng.Intn(4))
		for j := range rows {
			rows[j] = Row{V(int64(rng.Intn(4)))}
		}
		db.Sources[i] = &BaseTable{RelID: i, NumCols: 1, Data: rows}
	}
	return db
}

type namedSolver struct {
	name  string
	solve func(t *optree.Tree) (*plan.Node, *DB, error)
}

// TestPlanEquivalence is the central §5 property test: for random
// operator trees over joins, outer joins, semijoins, antijoins, and
// nestjoins, every plan produced from the TES-derived hypergraph — by
// DPhyp, DPsize, DPsub, top-down memoization, and DPhyp in
// generate-and-test mode — must compute exactly the initial tree's
// result on random databases.
func TestPlanEquivalence(t *testing.T) {
	opsMix := [][]algebra.Op{
		{algebra.Join},
		{algebra.Join, algebra.LeftOuter},
		{algebra.Join, algebra.SemiJoin, algebra.AntiJoin},
		{algebra.Join, algebra.LeftOuter, algebra.FullOuter},
		{algebra.Join, algebra.LeftOuter, algebra.SemiJoin, algebra.AntiJoin, algebra.NestJoin},
	}
	rng := rand.New(rand.NewSource(20080610))
	trials := 0
	for mi, mix := range opsMix {
		for rep := 0; rep < 24; rep++ {
			n := 2 + rng.Intn(5)
			gen := &treeGen{rng: rng, ops: mix}
			root, _ := gen.build(0, n, true)
			rels := make([]optree.RelInfo, n)
			for i := range rels {
				rels[i] = optree.RelInfo{Name: fmt.Sprintf("R%d", i), Card: float64(10 + rng.Intn(90))}
			}
			for _, rule := range []optree.ConflictRule{optree.Conservative, optree.Published} {
				tr, err := optree.Analyze(root, rels, rule)
				if err != nil {
					t.Fatalf("mix %d rep %d: Analyze: %v", mi, rep, err)
				}
				db := randomDB(rng, n)
				refPlan, err := FromOpTree(root, db)
				if err != nil {
					t.Fatalf("FromOpTree: %v", err)
				}
				ref, err := Run(refPlan)
				if err != nil {
					t.Fatalf("reference execution: %v", err)
				}
				checkSolvers(t, tr, db, ref, fmt.Sprintf("mix %d rep %d rule %v tree %v", mi, rep, rule, root))
				trials++
			}
		}
	}
	if trials == 0 {
		t.Fatal("no trials executed")
	}
}

func checkSolvers(t *testing.T, tr *optree.Tree, db *DB, ref *Rel, ctx string) {
	t.Helper()
	gTES := tr.Hypergraph(optree.TESEdges)
	gSES := tr.Hypergraph(optree.SESEdges)

	run := func(name string, p *plan.Node, graph *hypergraph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s / %s: solve failed: %v", ctx, name, err)
			return
		}
		ep, err := FromPlan(p, graph, db)
		if err != nil {
			t.Errorf("%s / %s: convert: %v", ctx, name, err)
			return
		}
		got, err := Run(ep)
		if err != nil {
			t.Errorf("%s / %s: execute: %v\nplan:\n%s", ctx, name, err, p)
			return
		}
		if !Equal(ref, got) {
			t.Errorf("%s / %s: result mismatch\nplan:\n%s\nwant:\n%s\ngot:\n%s",
				ctx, name, p, ref.Canonical(), got.Canonical())
		}
	}

	p1, _, err1 := core.Solve(gTES, dp.Options{})
	run("dphyp", p1, gTES, err1)

	p2, _, err2 := dpsize.Solve(gTES, dp.Options{})
	run("dpsize", p2, gTES, err2)

	p3, _, err3 := dpsub.Solve(gTES, dp.Options{})
	run("dpsub", p3, gTES, err3)

	p4, _, err4 := topdown.Solve(gTES, dp.Options{})
	run("topdown", p4, gTES, err4)

	p5, _, err5 := core.Solve(gSES, dp.Options{Filter: tr.Filter(gSES)})
	run("dphyp-generate-and-test", p5, gSES, err5)
}

// TestDependentJoinEquivalence checks the §5.6 pipeline end to end: a
// query over a base table, a dependent table expression S(R), and a
// further base table is optimized and executed; the dependent join must
// be placed so its provider is on the left, and the result must match
// direct evaluation.
func TestDependentJoinEquivalence(t *testing.T) {
	// Tree: (R0 ⋈ S1(R0)) ⋈ R2 with predicates (R0,S1) and (S1,R2).
	p01 := SumEq{Left: []ColID{{Rel: 0, Col: 0}}, Right: []ColID{{Rel: 1, Col: 0}}}
	p12 := SumEq{Left: []ColID{{Rel: 1, Col: 0}}, Right: []ColID{{Rel: 2, Col: 0}}}
	inner := optree.NewOp(algebra.Join, optree.NewLeaf(0), optree.NewLeaf(1),
		optree.Predicate{Tables: bitset.New(0, 1), Sel: 0.3, Payload: JoinSpec{Preds: []Pred{p01}}})
	root := optree.NewOp(algebra.Join, inner, optree.NewLeaf(2),
		optree.Predicate{Tables: bitset.New(1, 2), Sel: 0.3, Payload: JoinSpec{Preds: []Pred{p12}}})
	rels := []optree.RelInfo{
		{Name: "R0", Card: 20},
		{Name: "S(R0)", Card: 5, Free: bitset.New(0)},
		{Name: "R2", Card: 20},
	}
	tr, err := optree.Analyze(root, rels, optree.Conservative)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 3)
		// Replace R1 with a dependent table: S(r) = {r mod 3, (r+1) mod 3}.
		db.Sources[1] = &DepTable{
			RelID: 1, NumCols: 1,
			Needs: []ColID{{Rel: 0, Col: 0}},
			Fn: func(args []Value) []Row {
				if args[0].Null {
					return nil
				}
				v := args[0].Int
				return []Row{{V(v % 3)}, {V((v + 1) % 3)}}
			},
		}
		refPlan, err := FromOpTree(root, db)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(refPlan)
		if err != nil {
			t.Fatal(err)
		}

		g := tr.Hypergraph(optree.TESEdges)
		p, _, err := core.Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := FromPlan(p, g, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(ep)
		if err != nil {
			t.Fatalf("execute: %v\n%s", err, p)
		}
		if !Equal(ref, got) {
			t.Fatalf("trial %d mismatch\nplan:\n%s\nwant:\n%s\ngot:\n%s",
				trial, p, ref.Canonical(), got.Canonical())
		}
	}
}
