package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

func tpchish(t *testing.T) *Query {
	t.Helper()
	q := NewQuery()
	o := q.Relation("orders", 1_500_000)
	c := q.Relation("customer", 150_000)
	n := q.Relation("nation", 25)
	l := q.Relation("lineitem", 6_000_000)
	q.Join(o, c, 1.0/150_000)
	q.Join(c, n, 1.0/25)
	q.Join(o, l, 1.0/1_500_000)
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueryOptimizeDefault(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	res, err := p.Plan(ctx, tpchish(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations() != 4 {
		t.Errorf("plan covers %d relations", res.Plan.Relations())
	}
	if err := res.Plan.Validate(); err != nil {
		t.Error(err)
	}
	if res.Stats.CsgCmpPairs == 0 {
		t.Error("stats must be populated")
	}
	if res.Cost() <= 0 || res.Cardinality() <= 0 {
		t.Error("cost and cardinality must be positive")
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	var costs []float64
	for _, alg := range []Algorithm{DPhyp, DPsize, DPsub, DPccp, TopDown} {
		res, err := p.Plan(ctx, tpchish(t), WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		costs = append(costs, res.Cost())
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Errorf("algorithm %d cost %g != %g", i, costs[i], costs[0])
		}
	}
}

func TestCostModels(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	for _, m := range []CostModel{Cout, NestedLoop, Hash} {
		res, err := p.Plan(ctx, tpchish(t), WithCostModel(m))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Cost() <= 0 {
			t.Errorf("%s: cost %g", m.Name(), res.Cost())
		}
	}
}

func TestComplexJoinBecomesHyperedge(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	var ids []RelID
	for i := 0; i < 6; i++ {
		ids = append(ids, q.Relation("R", 100))
	}
	q.Join(ids[0], ids[1], 0.1)
	q.Join(ids[1], ids[2], 0.1)
	q.Join(ids[3], ids[4], 0.1)
	q.Join(ids[4], ids[5], 0.1)
	// The Fig. 2 predicate R1.a+R2.b+R3.c = R4.d+R5.e+R6.f.
	q.ComplexJoin(ids[:3], ids[3:], 0.05)
	res, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CsgCmpPairs != 9 {
		t.Errorf("pairs = %d, want 9 (Fig. 2 search space)", res.Stats.CsgCmpPairs)
	}
}

func TestFlexibleJoin(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	a := q.Relation("A", 100)
	b := q.Relation("B", 100)
	c := q.Relation("C", 100)
	q.Join(a, b, 0.1)
	q.FlexibleJoin([]RelID{a}, []RelID{c}, []RelID{b}, 0.2)
	res, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations() != 3 {
		t.Error("incomplete plan")
	}
}

func TestDisconnectedQueryRepaired(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	a := q.Relation("A", 10)
	b := q.Relation("B", 20)
	c := q.Relation("C", 30)
	q.Join(a, b, 0.1)
	_ = c // no edge to C: cross product required
	res, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatalf("disconnected query must be repaired (§2.1): %v", err)
	}
	if res.Plan.Relations() != 3 {
		t.Error("repair lost a relation")
	}
}

func TestQueryErrors(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	if _, err := p.Plan(ctx, q); err == nil {
		t.Error("empty query must fail")
	}
	q2 := NewQuery()
	q2.Relation("A", -5)
	if q2.Err() == nil {
		t.Error("negative cardinality must fail")
	}
	q3 := NewQuery()
	a := q3.Relation("A", 10)
	q3.Join(a, RelID(9), 0.5)
	if q3.Err() == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := p.Plan(ctx, q3); err == nil {
		t.Error("Plan must surface builder errors")
	}
}

// TestNonFiniteInputsRejected: a NaN or infinite cardinality or
// selectivity is a construction error on every input path. Every
// comparison with NaN is false, so a check that only rejects values
// "<= 0" or "> 1" lets NaN, and a +Inf cardinality, through.
func TestNonFiniteInputsRejected(t *testing.T) {
	pair := func(card, sel float64) *QueryJSON {
		return &QueryJSON{
			Relations: []RelationJSON{{Name: "a", Card: card}, {Name: "b", Card: 20}},
			Edges:     []EdgeJSON{{Left: []int{0}, Right: []int{1}, Sel: sel}},
		}
	}
	treeDoc := func(card, sel float64) *QueryJSON {
		r0, r1 := 0, 1
		return &QueryJSON{
			Relations: []RelationJSON{{Name: "a", Card: card}, {Name: "b", Card: 20}},
			Tree: &TreeJSON{Op: "leftouterjoin", Left: &TreeJSON{Rel: &r0}, Right: &TreeJSON{Rel: &r1},
				Pred: []int{0, 1}, Sel: sel},
		}
	}
	treeQuery := func(card, sel float64) error {
		tq := NewTreeQuery()
		a, b := tq.Table("a", card), tq.Table("b", 20)
		_, err := NewPlanner().PlanTree(context.Background(), tq, a.LeftOuterJoin(b, sel))
		return err
	}
	paths := []struct {
		name  string
		build func(v float64) error
	}{
		{"Query.Relation card", func(v float64) error {
			q := NewQuery()
			q.Relation("a", v)
			return q.Err()
		}},
		{"Query.Join sel", func(v float64) error {
			q := NewQuery()
			q.Join(q.Relation("a", 10), q.Relation("b", 20), v)
			return q.Err()
		}},
		{"BuildQuery card", func(v float64) error { _, err := pair(v, 0.5).BuildQuery(); return err }},
		{"BuildQuery sel", func(v float64) error { _, err := pair(10, v).BuildQuery(); return err }},
		{"TreeQuery.Table card", func(v float64) error { return treeQuery(v, 0.5) }},
		{"TreeQuery predicate sel", func(v float64) error { return treeQuery(10, v) }},
		{"tree document card", func(v float64) error {
			_, err := NewPlanner().PlanJSON(context.Background(), treeDoc(v, 0.5))
			return err
		}},
		{"tree document sel", func(v float64) error {
			_, err := NewPlanner().PlanJSON(context.Background(), treeDoc(10, v))
			return err
		}},
	}
	for _, p := range paths {
		if err := p.build(0.5); err != nil {
			t.Fatalf("%s: finite control value rejected: %v", p.name, err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if p.build(v) == nil {
				t.Errorf("%s: %v accepted", p.name, v)
			}
		}
	}
}

func TestDependentRelationQuery(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	q := NewQuery()
	r := q.Relation("R", 100)
	s := q.DependentRelation("S(R)", 10, r)
	q.Join(r, s, 0.3)
	res, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Op.String() != "dep-join" {
		t.Errorf("op = %v, want dep-join", res.Plan.Op)
	}
}

func TestTreeQuery(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	tq := NewTreeQuery()
	f := tq.Table("fact", 1_000_000)
	d1 := tq.Table("dim1", 1000)
	d2 := tq.Table("dim2", 500)
	d3 := tq.Table("dim3", 200)
	expr := f.Join(d1, 0.001).AntiJoin(d2, 0.002).LeftOuterJoin(d3, 0.005)
	if got := tq.InitialTree(expr); got != "(((R0 ⋈ R1) ▷ R2) ⟕ R3)" {
		t.Errorf("InitialTree = %q", got)
	}
	res, err := p.PlanTree(ctx, tq, expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations() != 4 {
		t.Error("incomplete plan")
	}
	// Operators survive into the plan.
	s := res.Plan.String()
	for _, frag := range []string{"antijoin", "leftouterjoin"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan missing %s:\n%s", frag, s)
		}
	}
}

func TestTreeQueryGenerateAndTest(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	build := func() (*TreeQuery, *Expr) {
		tq := NewTreeQuery()
		f := tq.Table("fact", 1_000_000)
		d1 := tq.Table("dim1", 1000)
		d2 := tq.Table("dim2", 500)
		return tq, f.AntiJoin(d1, 0.001).AntiJoin(d2, 0.002)
	}
	tq1, e1 := build()
	r1, err := p.PlanTree(ctx, tq1, e1)
	if err != nil {
		t.Fatal(err)
	}
	tq2, e2 := build()
	r2, err := p.PlanTree(ctx, tq2, e2, WithGenerateAndTest())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost() != r2.Cost() {
		t.Errorf("generate-and-test cost %g != hyperedge cost %g", r2.Cost(), r1.Cost())
	}
}

func TestTreeQueryConflictRules(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	build := func() (*TreeQuery, *Expr) {
		tq := NewTreeQuery()
		f := tq.Table("fact", 1_000_000)
		d1 := tq.Table("dim1", 1000)
		d2 := tq.Table("dim2", 500)
		return tq, f.AntiJoin(d1, 0.001).AntiJoin(d2, 0.002)
	}
	tq1, e1 := build()
	cons, err := p.PlanTree(ctx, tq1, e1)
	if err != nil {
		t.Fatal(err)
	}
	tq2, e2 := build()
	pub, err := p.PlanTree(ctx, tq2, e2, WithPublishedConflictRule())
	if err != nil {
		t.Fatal(err)
	}
	// The published rule admits more reorderings on antijoin stars, so it
	// explores at least as many pairs and finds a plan at most as costly.
	if pub.Stats.CsgCmpPairs < cons.Stats.CsgCmpPairs {
		t.Errorf("published pairs %d < conservative %d", pub.Stats.CsgCmpPairs, cons.Stats.CsgCmpPairs)
	}
	if pub.Cost() > cons.Cost() {
		t.Errorf("published cost %g > conservative %g", pub.Cost(), cons.Cost())
	}
}

func TestTreeQueryErrors(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	tq := NewTreeQuery()
	a := tq.Table("A", 10)
	if _, err := p.PlanTree(ctx, tq, a.Join(a, 0.5)); err == nil {
		t.Error("self-join of the same expression must fail")
	}
	other := NewTreeQuery()
	b := other.Table("B", 10)
	tq2 := NewTreeQuery()
	a2 := tq2.Table("A", 10)
	a2.Join(b, 0.5)
	if _, err := p.PlanTree(ctx, tq2, a2); err == nil {
		t.Error("mixing queries must fail")
	}
	tq3 := NewTreeQuery()
	if _, err := p.PlanTree(ctx, tq3, nil); err == nil {
		t.Error("nil root must fail")
	}
}

func TestTreeQueryAnalyze(t *testing.T) {
	tq := NewTreeQuery()
	f := tq.Table("fact", 1_000_000)
	d1 := tq.Table("dim1", 1000)
	d2 := tq.Table("dim2", 500)
	g, err := tq.Analyze(f.AntiJoin(d1, 0.001).AntiJoin(d2, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{DPhyp, DPsize, DPsub, DPccp, TopDown} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm must render")
	}
}

func TestTraceOption(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	tr := &Trace{}
	q := tpchish(t)
	if _, err := p.Plan(ctx, q, WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) == 0 {
		t.Error("trace must record steps")
	}
}

func TestJSONGraphRoundTrip(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	doc := []byte(`{
		"relations": [
			{"name": "A", "card": 100},
			{"name": "B", "card": 200},
			{"name": "C", "card": 300}
		],
		"edges": [
			{"left": [0], "right": [1], "sel": 0.1},
			{"left": [0, 1], "right": [2], "sel": 0.05, "label": "complex"}
		]
	}`)
	q, err := ParseQuery(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.PlanJSON(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations() != 3 {
		t.Error("incomplete plan")
	}
}

func TestJSONTree(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	doc := []byte(`{
		"relations": [
			{"name": "F", "card": 100000},
			{"name": "D1", "card": 100},
			{"name": "D2", "card": 50}
		],
		"tree": {
			"op": "antijoin",
			"left": {
				"op": "join",
				"left": {"rel": 0}, "right": {"rel": 1},
				"pred": [0, 1], "sel": 0.01
			},
			"right": {"rel": 2},
			"pred": [0, 2], "sel": 0.02
		}
	}`)
	q, err := ParseQuery(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.PlanJSON(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	res.Plan.Walk(func(n *PlanNode) {
		if !n.IsLeaf() && n.Op == OpAntiJoin {
			found = true
		}
	})
	if !found {
		t.Error("antijoin lost in optimization")
	}
}

func TestJSONErrors(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	cases := []string{
		`{`,
		`{"relations": []}`,
		`{"relations": [{"name":"A","card":1}]}`,
		`{"relations": [{"name":"A","card":1}], "edges":[{"left":[0],"right":[1],"sel":0.5}], "tree":{"rel":0}}`,
	}
	for i, c := range cases {
		if _, err := ParseQuery([]byte(c)); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
	// Bad op name surfaces at optimize time.
	q, err := ParseQuery([]byte(`{"relations":[{"name":"A","card":1},{"name":"B","card":1}],"edges":[{"left":[0],"right":[1],"sel":0.5,"op":"bogus"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanJSON(ctx, q); err == nil {
		t.Error("bogus op must fail")
	}

	// PlanJSON validates documents that did not come through ParseQuery:
	// one with both edges and a tree must not plan the tree and drop the
	// edges, and a relation alone is not a query.
	r0, r1 := 0, 1
	invalid := map[string]*QueryJSON{
		"edges and tree": {
			Relations: []RelationJSON{{Name: "A", Card: 10}, {Name: "B", Card: 20}},
			Edges:     []EdgeJSON{{Left: []int{0}, Right: []int{1}, Sel: 0.5}},
			Tree: &TreeJSON{Op: "join", Left: &TreeJSON{Rel: &r0}, Right: &TreeJSON{Rel: &r1},
				Pred: []int{0, 1}, Sel: 0.01},
		},
		"neither edges nor tree": {Relations: []RelationJSON{{Name: "A", Card: 10}}},
	}
	failures := p.Metrics().Failures
	for name, doc := range invalid {
		if res, err := p.PlanJSON(ctx, doc); err == nil {
			t.Errorf("%s: planned (card %g), want a validation error", name, res.Cardinality())
		}
	}
	if got := p.Metrics().Failures - failures; got != uint64(len(invalid)) {
		t.Errorf("Failures rose by %d, want %d", got, len(invalid))
	}
}

func TestGreedyAlgorithm(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	res, err := p.Plan(ctx, tpchish(t), WithAlgorithm(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Relations() != 4 {
		t.Error("incomplete greedy plan")
	}
	opt, err := p.Plan(ctx, tpchish(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() < opt.Cost()*(1-1e-9) {
		t.Errorf("greedy cost %g beats optimal %g", res.Cost(), opt.Cost())
	}
	if got, err := ParseAlgorithm("greedy"); err != nil || got != Greedy {
		t.Error("greedy must parse")
	}
}

// §3.6: "the memory requirements of all algorithms are about the same" —
// every DP variant memoizes exactly the connected subgraphs, so the
// final table sizes must be identical.
func TestMemoryRequirementsIdentical(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	var entries []int
	for _, alg := range []Algorithm{DPhyp, DPsize, DPsub, DPccp, TopDown} {
		res, err := p.Plan(ctx, tpchish(t), WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, res.Stats.TableEntries)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i] != entries[0] {
			t.Errorf("algorithm %d memoizes %d entries, others %d", i, entries[i], entries[0])
		}
	}
}

func TestWithoutSimplification(t *testing.T) {
	p, ctx := NewPlanner(), context.Background()
	// (A ⟕ B) ⋈ C with the join referencing B: simplification converts
	// the outer join; without it the outer join must survive analysis.
	build := func() (*TreeQuery, *Expr) {
		tq := NewTreeQuery()
		a := tq.Table("A", 100)
		b := tq.Table("B", 50)
		c := tq.Table("C", 20)
		return tq, a.LeftOuterJoin(b, 0.1).Join(c, 0.1, On(b, c))
	}
	tq1, e1 := build()
	simplified, err := p.PlanTree(ctx, tq1, e1)
	if err != nil {
		t.Fatal(err)
	}
	hasOuter := func(r *Result) bool {
		found := false
		r.Plan.Walk(func(n *PlanNode) {
			if !n.IsLeaf() && n.Op == OpLeftOuter {
				found = true
			}
		})
		return found
	}
	if hasOuter(simplified) {
		t.Error("simplification must have removed the refuted outer join")
	}
	tq2, e2 := build()
	raw, err := p.PlanTree(ctx, tq2, e2, WithoutSimplification())
	if err != nil {
		t.Fatal(err)
	}
	if !hasOuter(raw) {
		t.Error("WithoutSimplification must keep the outer join")
	}
}
