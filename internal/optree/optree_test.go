package optree

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/plan"
)

// leftDeepStar builds (((R0 ∘1 R1) ∘2 R2) ... ∘k Rk) with hub–satellite
// predicates {R0,Ri} and the given operators (ops[i] joins satellite
// i+1).
func leftDeepStar(ops []algebra.Op) (*Node, []RelInfo) {
	n := len(ops) + 1
	rels := make([]RelInfo, n)
	for i := range rels {
		rels[i] = RelInfo{Name: "R", Card: 100}
	}
	cur := NewLeaf(0)
	for i, op := range ops {
		cur = NewOp(op, cur, NewLeaf(i+1), Predicate{
			Tables: bitset.New(0, i+1),
			Sel:    0.1,
		})
	}
	return cur, rels
}

// leftDeepCycle builds a left-deep tree over a cycle query: predicate i
// references {R_{i-1}, R_i}, and the final operator also carries the
// closing predicate {R0, R_{n-1}} folded into its table set.
func leftDeepCycle(ops []algebra.Op) (*Node, []RelInfo) {
	n := len(ops) + 1
	rels := make([]RelInfo, n)
	for i := range rels {
		rels[i] = RelInfo{Name: "R", Card: 100}
	}
	cur := NewLeaf(0)
	for i, op := range ops {
		tabs := bitset.New(i, i+1)
		if i == len(ops)-1 {
			tabs = tabs.Add(0) // closing edge predicate
		}
		cur = NewOp(op, cur, NewLeaf(i+1), Predicate{Tables: tabs, Sel: 0.1})
	}
	return cur, rels
}

func mustAnalyze(t *testing.T, root *Node, rels []RelInfo, rule ConflictRule) *Tree {
	t.Helper()
	tr, err := Analyze(root, rels, rule)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return tr
}

func ops(o algebra.Op, n int) []algebra.Op {
	out := make([]algebra.Op, n)
	for i := range out {
		out[i] = o
	}
	return out
}

func TestAnalyzeValidation(t *testing.T) {
	// Leaves out of order.
	bad := NewOp(algebra.Join, NewLeaf(1), NewLeaf(0), Predicate{Tables: bitset.New(0, 1), Sel: 0.1})
	if _, err := Analyze(bad, []RelInfo{{Name: "a", Card: 1}, {Name: "b", Card: 1}}, Conservative); err == nil {
		t.Error("out-of-order leaves must fail (§5.4 numbering)")
	}
	// Predicate referencing one side only.
	oneSided := NewOp(algebra.Join, NewLeaf(0), NewLeaf(1), Predicate{Tables: bitset.New(0), Sel: 0.1})
	if _, err := Analyze(oneSided, []RelInfo{{Name: "a", Card: 1}, {Name: "b", Card: 1}}, Conservative); err == nil {
		t.Error("one-sided predicate must fail")
	}
	// Predicate referencing tables outside the subtree.
	outside := NewOp(algebra.Join, NewLeaf(0), NewLeaf(1), Predicate{Tables: bitset.New(0, 1, 5), Sel: 0.1})
	if _, err := Analyze(outside, []RelInfo{{Name: "a", Card: 1}, {Name: "b", Card: 1}}, Conservative); err == nil {
		t.Error("out-of-scope predicate must fail")
	}
	// Dependent operator in the initial tree.
	dep := NewOp(algebra.DepJoin, NewLeaf(0), NewLeaf(1), Predicate{Tables: bitset.New(0, 1), Sel: 0.1})
	if _, err := Analyze(dep, []RelInfo{{Name: "a", Card: 1}, {Name: "b", Card: 1}}, Conservative); err == nil {
		t.Error("dependent operators must be rejected in initial trees")
	}
	// Bad selectivity.
	root, rels := leftDeepStar(ops(algebra.Join, 2))
	root.Pred.Sel = 0
	if _, err := Analyze(root, rels, Conservative); err == nil {
		t.Error("zero selectivity must fail")
	}
	// Missing relations.
	root2, rels2 := leftDeepStar(ops(algebra.Join, 2))
	if _, err := Analyze(root2, rels2[:2], Conservative); err == nil {
		t.Error("missing RelInfo must fail")
	}
}

func TestSESIsPredicateTables(t *testing.T) {
	root, rels := leftDeepStar(ops(algebra.Join, 3))
	tr := mustAnalyze(t, root, rels, Conservative)
	for i, o := range tr.Ops() {
		want := bitset.New(0, i+1)
		if !o.SES().Equal(want) {
			t.Errorf("op %d: SES = %v, want %v", i, o.SES(), want)
		}
	}
}

// Inner joins never conflict with each other: TES = SES and the derived
// hypergraph is exactly the star of simple edges.
func TestInnerJoinStarNoConflicts(t *testing.T) {
	root, rels := leftDeepStar(ops(algebra.Join, 4))
	for _, rule := range []ConflictRule{Conservative, Published} {
		tr := mustAnalyze(t, root, rels, rule)
		for i, o := range tr.Ops() {
			if !o.TES().Equal(o.SES()) {
				t.Errorf("rule %v op %d: TES %v != SES %v", rule, i, o.TES(), o.SES())
			}
		}
		g := tr.Hypergraph(TESEdges)
		if g.NumEdges() != 4 {
			t.Fatalf("edges = %d", g.NumEdges())
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(i)
			if !e.Simple() {
				t.Errorf("rule %v edge %d not simple: %v -- %v", rule, i, e.U, e.V)
			}
		}
	}
}

// Under the conservative rule, a left-deep all-antijoin star accumulates
// prefix TESs, collapsing the search space to the original order — the
// §5.7 claim that the all-antijoin star explores only O(n) pairs.
func TestAntijoinStarConservativePrefixTES(t *testing.T) {
	k := 5
	root, rels := leftDeepStar(ops(algebra.AntiJoin, k))
	tr := mustAnalyze(t, root, rels, Conservative)
	for i, o := range tr.Ops() {
		want := bitset.Range(0, i+2) // {R0..R_{i+1}}
		if !o.TES().Equal(want) {
			t.Errorf("op %d: TES = %v, want prefix %v", i, o.TES(), want)
		}
	}
	g := tr.Hypergraph(TESEdges)
	pairs := counting.CountCsgCmpPairs(g)
	if pairs != k {
		t.Errorf("all-antijoin star explores %d pairs, want O(n) = %d", pairs, k)
	}
}

// Under the published rule, hub–satellite predicates never overlap the
// right-branch path tables, so no conflict fires and antijoins stay
// star-shaped (semantically valid — antijoins against the hub commute —
// but not what the paper's Fig. 8a measured; see the package comment).
func TestAntijoinStarPublishedStaysStar(t *testing.T) {
	root, rels := leftDeepStar(ops(algebra.AntiJoin, 4))
	tr := mustAnalyze(t, root, rels, Published)
	for i, o := range tr.Ops() {
		if !o.TES().Equal(o.SES()) {
			t.Errorf("op %d: TES = %v, want SES %v", i, o.TES(), o.SES())
		}
	}
}

// Outer joins among themselves do not conflict (OC(P,P) = false, eq.
// 4.46), so a cycle of outer joins keeps small TESs under both rules;
// but an inner join above an outer join freezes the outer join's tables
// (Fig. 9: (R P S) B T ≠ R P (S B T)).
func TestOuterJoinCycleTES(t *testing.T) {
	for _, rule := range []ConflictRule{Conservative, Published} {
		root, rels := leftDeepCycle(ops(algebra.LeftOuter, 5))
		tr := mustAnalyze(t, root, rels, rule)
		for i, o := range tr.Ops() {
			if !o.TES().Equal(o.SES()) {
				t.Errorf("rule %v op %d: outer joins must not conflict: TES %v SES %v",
					rule, i, o.TES(), o.SES())
			}
		}
	}

	// Mixed: joins above outer joins absorb them.
	mixed := []algebra.Op{algebra.LeftOuter, algebra.LeftOuter, algebra.Join, algebra.Join}
	root, rels := leftDeepCycle(mixed)
	tr := mustAnalyze(t, root, rels, Published)
	opsList := tr.Ops()
	// op 2 is the first inner join; its predicate {R2,R3} overlaps the
	// right-branch tables of both outer joins below, and OC(P,B) = true.
	if got := opsList[2].TES(); got.Equal(opsList[2].SES()) {
		t.Errorf("join above outer joins must grow its TES, got %v", got)
	}
	// The outer joins themselves keep TES = SES.
	for i := 0; i < 2; i++ {
		if !opsList[i].TES().Equal(opsList[i].SES()) {
			t.Errorf("outer join %d TES grew unexpectedly", i)
		}
	}
}

// Full outer joins conflict with inner joins in both directions
// (OC(B,M) and OC(M,B) are both true). The commutativity normalization
// folded into RightTables makes the published gate fire even though the
// hub sits in the full outer join's left argument.
func TestFullOuterConflicts(t *testing.T) {
	root, rels := leftDeepStar([]algebra.Op{algebra.FullOuter, algebra.Join})
	tr := mustAnalyze(t, root, rels, Published)
	o := tr.Ops()
	// Inner join above the full outer join: conflict → TES grows to
	// cover the full outer join's tables.
	if got, want := o[1].TES(), bitset.New(0, 1, 2); !got.Equal(want) {
		t.Errorf("join TES = %v, want %v (absorbing the full outer join)", got, want)
	}
}

// TES-derived hyperedges must respect §5.7: r-part inside the right
// subtree, l-part the rest, operator attached.
func TestHypergraphEdgeDerivation(t *testing.T) {
	root, rels := leftDeepStar(ops(algebra.AntiJoin, 3))
	tr := mustAnalyze(t, root, rels, Conservative)
	g := tr.Hypergraph(TESEdges)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.Op != algebra.AntiJoin {
			t.Errorf("edge %d op = %v", i, e.Op)
		}
		if !e.V.Equal(bitset.Single(i + 1)) {
			t.Errorf("edge %d right side = %v, want {R%d}", i, e.V, i+1)
		}
		if !e.U.Equal(bitset.Range(0, i+1)) {
			t.Errorf("edge %d left side = %v, want prefix", i, e.U)
		}
	}
	// Relations carry cardinalities into the graph.
	if g.Relation(0).Card != 100 {
		t.Error("cardinality not propagated")
	}
}

// The SESEdges graph plus TES filter must admit exactly the plans of the
// TESEdges graph: same optimal cost, fewer or equal pairs on the
// hyperedge side.
func TestGenerateAndTestEquivalence(t *testing.T) {
	configs := [][]algebra.Op{
		ops(algebra.AntiJoin, 5),
		{algebra.AntiJoin, algebra.Join, algebra.AntiJoin, algebra.Join},
		{algebra.SemiJoin, algebra.Join, algebra.Join, algebra.AntiJoin},
		ops(algebra.Join, 5),
	}
	for ci, cfg := range configs {
		root, rels := leftDeepStar(cfg)
		tr := mustAnalyze(t, root, rels, Conservative)

		gHyper := tr.Hypergraph(TESEdges)
		pHyper, sHyper, err := core.Solve(gHyper, dp.Options{})
		if err != nil {
			t.Fatalf("config %d hyper: %v", ci, err)
		}

		gSES := tr.Hypergraph(SESEdges)
		pSES, sSES, err := core.Solve(gSES, dp.Options{Filter: tr.Filter(gSES)})
		if err != nil {
			t.Fatalf("config %d ses: %v", ci, err)
		}

		if pHyper.Cost != pSES.Cost {
			t.Errorf("config %d: hyper cost %g != generate-and-test cost %g",
				ci, pHyper.Cost, pSES.Cost)
		}
		if sHyper.CsgCmpPairs > sSES.CsgCmpPairs {
			t.Errorf("config %d: hyperedges explored more pairs (%d) than generate-and-test (%d)",
				ci, sHyper.CsgCmpPairs, sSES.CsgCmpPairs)
		}
	}
}

// §5.7's efficiency claim in miniature: on the all-antijoin star, the
// hyperedge formulation explores dramatically fewer pairs than
// generate-and-test.
func TestSearchSpaceReduction(t *testing.T) {
	root, rels := leftDeepStar(ops(algebra.AntiJoin, 8))
	tr := mustAnalyze(t, root, rels, Conservative)

	gHyper := tr.Hypergraph(TESEdges)
	_, sHyper, err := core.Solve(gHyper, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gSES := tr.Hypergraph(SESEdges)
	_, sSES, err := core.Solve(gSES, dp.Options{Filter: tr.Filter(gSES)})
	if err != nil {
		t.Fatal(err)
	}
	if sHyper.CsgCmpPairs != 8 {
		t.Errorf("hyperedge pairs = %d, want n-1 = 8", sHyper.CsgCmpPairs)
	}
	// The generate-and-test table also prunes (rejected sets never become
	// DP entries), so the emitted-pair gap is quadratic-vs-linear here;
	// the orders-of-magnitude difference the paper plots is wall time,
	// which additionally pays for the exponential neighborhood subset
	// iteration (measured by BenchmarkFig8aAntijoins).
	if sSES.CsgCmpPairs < 4*sHyper.CsgCmpPairs {
		t.Errorf("expected a superlinear emitted-pair gap: hyper %d vs ses %d",
			sHyper.CsgCmpPairs, sSES.CsgCmpPairs)
	}
	if sSES.FilterReject == 0 {
		t.Error("generate-and-test must reject candidates")
	}
	if sHyper.FilterReject != 0 {
		t.Error("hyperedge mode has no filter to reject anything")
	}
}

// Dependent relations: RelInfo.Free flows into the hypergraph so that
// EmitCsgCmp can apply the §5.6 dependent-variant switch.
func TestDependentRelationFlow(t *testing.T) {
	// R0 ⋈ S(R0): S depends on R0.
	root := NewOp(algebra.Join, NewLeaf(0), NewLeaf(1),
		Predicate{Tables: bitset.New(0, 1), Sel: 0.5})
	rels := []RelInfo{
		{Name: "R", Card: 50},
		{Name: "S(R)", Card: 10, Free: bitset.New(0)},
	}
	tr := mustAnalyze(t, root, rels, Conservative)
	g := tr.Hypergraph(TESEdges)
	if !g.FreeTables(bitset.New(1)).Equal(bitset.New(0)) {
		t.Fatalf("free tables = %v", g.FreeTables(bitset.New(1)))
	}
	p, _, err := core.Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The plan must use the dependent join with S on the right.
	if p.Op != algebra.DepJoin {
		t.Errorf("op = %v, want dep-join", p.Op)
	}
	if p.Right.Rel != 1 {
		t.Errorf("dependent side must be the right argument")
	}
}

// Nestjoin attribute references force ordering: a predicate referencing a
// nestjoin's aggregate output absorbs the nestjoin's TES.
func TestNestjoinAttributeDependency(t *testing.T) {
	// (R0 T R1) ⋈ R2 where the join predicate references the aggregate
	// computed by the nestjoin.
	nest := NewOp(algebra.NestJoin, NewLeaf(0), NewLeaf(1),
		Predicate{Tables: bitset.New(0, 1), Sel: 0.1, ExprTables: bitset.New(1)})
	root := NewOp(algebra.Join, nest, NewLeaf(2),
		Predicate{Tables: bitset.New(0, 2), Sel: 0.1, NestRefs: []*Node{nest}})
	rels := []RelInfo{{Name: "R0", Card: 10}, {Name: "R1", Card: 10}, {Name: "R2", Card: 10}}
	tr := mustAnalyze(t, root, rels, Published)
	join := tr.Ops()[1]
	if !nest.TES().SubsetOf(join.TES()) {
		t.Errorf("join TES %v must absorb nestjoin TES %v", join.TES(), nest.TES())
	}
}

func TestTreeString(t *testing.T) {
	root, _ := leftDeepStar([]algebra.Op{algebra.AntiJoin, algebra.Join})
	if got := root.String(); got != "((R0 ▷ R1) ⋈ R2)" {
		t.Errorf("String = %q", got)
	}
}

// Plans from TES-derived hypergraphs must carry the originating operators
// (§5.4: "we associate with each hyperedge the operator from which it was
// derived").
func TestOperatorRecovery(t *testing.T) {
	root, rels := leftDeepStar([]algebra.Op{algebra.SemiJoin, algebra.LeftOuter, algebra.Join})
	tr := mustAnalyze(t, root, rels, Conservative)
	g := tr.Hypergraph(TESEdges)
	p, _, err := core.Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := map[algebra.Op]int{}
	p.Walk(func(n *plan.Node) {
		if !n.IsLeaf() {
			count[n.Op]++
		}
	})
	if count[algebra.SemiJoin] != 1 || count[algebra.LeftOuter] != 1 || count[algebra.Join] != 1 {
		t.Errorf("operator counts = %v, want one of each", count)
	}
	// Non-commutative operators must keep their satellite on the right.
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() || n.Op == algebra.Join {
			return
		}
		if !n.Right.Rels.IsSingleton() {
			t.Errorf("%v has composite right side %v", n.Op, n.Right.Rels)
		}
	})
}
