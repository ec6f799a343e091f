package repro

import (
	"context"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// TestPlanCacheKeyGolden pins the exact bytes of the plan-cache key.
// Warm-start snapshots persist these keys and the service's coalescing
// keys embed the same fingerprint, so any change to their encoding
// silently turns every restored entry into a miss. The expected strings
// come from the fmt.Sprintf encoder that preceded appendConfigKey, the
// format snapshots already on disk carry.
func TestPlanCacheKeyGolden(t *testing.T) {
	q := NewQuery()
	r0 := q.Relation("a", 10)
	r1 := q.Relation("b", 200.5)
	r2 := q.Relation("c", 3e6)
	r3 := q.DependentRelation("d", 0.75, r0)
	q.Join(r0, r1, 0.1)
	q.ComplexJoin([]RelID{r0, r1}, []RelID{r2}, 0.25)
	q.FlexibleJoin([]RelID{r1}, []RelID{r3}, []RelID{r2}, 1)

	const fp = "4|5629499534213120p-49|7054466603810816p-45|6442450944000000p-31|6755399441055744p-53~1" +
		";1,2,0:7205759403792794p-56:1;3,4,0:4503599627370496p-54:1;2,8,4:4503599627370496p-52:1"
	want := []string{
		"0/Cout/conservative/false/0:0/false/0\x00" + fp,
		"1/Chash/published/false/1000:5/true/7\x00" + fp,
	}

	// Default options, then one per-call override of every keyed option.
	calls := [][]Option{nil, {WithAlgorithm(DPsize), WithCostModel(Hash), WithPublishedConflictRule(),
		WithBudget(Budget{MaxCsgCmpPairs: 1000, MaxCostedPlans: 5}), WithoutGreedyFallback(), WithClusterSize(7)}}
	p := NewPlanner()
	ctx := context.Background()
	for _, opts := range calls {
		if _, err := p.Plan(ctx, q, opts...); err != nil {
			t.Fatal(err)
		}
	}
	entries := p.cache.snapshotEntries()
	if len(entries) != len(want) {
		t.Fatalf("cache holds %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.key != want[i] {
			t.Errorf("key %d:\n got %q\nwant %q", i, e.key, want[i])
		}
	}
	if got := q.Graph().Fingerprint(); got != fp {
		t.Errorf("Fingerprint:\n got %q\nwant %q", got, fp)
	}
	// Both keys hit from a fresh copy of the query.
	for i, opts := range calls {
		q2 := NewQuery()
		q2.g = q.g.Clone()
		if res, err := p.Plan(ctx, q2, opts...); err != nil || !res.Stats.CacheHit {
			t.Errorf("key %d: rebuilt query missed the cache (err=%v)", i, err)
		}
	}
}

// TestCacheHitIsolation: a cache hit hands out a private copy. Writing
// through the filling run's plan or one hit's plan nodes, child
// pointers and edge slices must change neither the next hit nor the
// other nodes of the same plan.
func TestCacheHitIsolation(t *testing.T) {
	p := NewPlanner(WithAlgorithm(SolverAuto))
	ctx := context.Background()
	q := cliqueQuery(10)

	fill, err := p.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := fill.Plan.String()
	fill.Plan.Cost = -1 // the filling run's Result is the caller's too

	hit, err := p.Plan(ctx, q)
	if err != nil || !hit.Stats.CacheHit {
		t.Fatalf("second plan must hit (err=%v)", err)
	}
	if got := hit.Plan.String(); got != wantPlan {
		t.Fatalf("write through the filling Result leaked into the cache:\n got %s\nwant %s", got, wantPlan)
	}

	// Appending to any node's Edges must leave every other node's intact.
	var nodes []*PlanNode
	hit.Plan.Walk(func(n *PlanNode) { nodes = append(nodes, n) })
	before := make([][]int, len(nodes))
	for i, n := range nodes {
		before[i] = append([]int(nil), n.Edges...)
	}
	for i, n := range nodes {
		if len(n.Edges) == 0 {
			continue
		}
		n.Edges = append(n.Edges, 999)
		for j, m := range nodes {
			if j != i && !slices.Equal(m.Edges, before[j]) {
				t.Fatalf("appending to node %d's Edges changed node %d's: %v, want %v", i, j, m.Edges, before[j])
			}
		}
		n.Edges = n.Edges[:len(before[i])]
	}
	hit.Plan.Card = -1
	hit.Plan.Cost = -1
	hit.Plan.Left = hit.Plan.Right

	next, err := p.Plan(ctx, q)
	if err != nil || !next.Stats.CacheHit {
		t.Fatalf("third plan must hit (err=%v)", err)
	}
	if got := next.Plan.String(); got != wantPlan {
		t.Errorf("cached plan corrupted through a hit:\n got %s\nwant %s", got, wantPlan)
	}
}

// graphJSON renders a hypergraph as the document a client would send.
func graphJSON(g *hypergraph.Graph) *QueryJSON {
	doc := &QueryJSON{}
	for i := 0; i < g.NumRels(); i++ {
		r := g.Relation(i)
		doc.Relations = append(doc.Relations, RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		doc.Edges = append(doc.Edges, EdgeJSON{
			Left: e.U.Elems(), Right: e.V.Elems(), Free: e.W.Elems(),
			Sel: e.Sel, Op: e.Op.String(), Label: e.Label,
		})
	}
	return doc
}

// raceAllocs is what the race detector adds to a BuildQuery+Plan hit
// (see race_test.go); 0 in a normal build.
var raceAllocs float64

// TestCacheHitAllocs pins the allocations of a plan-cache hit: the key
// is built without allocating and the plan is copied into two slabs, so
// a hit costs a handful of allocations regardless of plan size. Each
// bound is the measured count, so a closure or struct that starts
// escaping from the planning pipeline fails here.
func TestCacheHitAllocs(t *testing.T) {
	ctx := context.Background()
	cfg := workload.DefaultConfig()
	p := NewPlanner(WithAlgorithm(SolverAuto))

	g := workload.Clique(8, cfg)
	g.Freeze()
	if _, err := p.PlanGraph(ctx, g); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if res, err := p.PlanGraph(ctx, g); err != nil || !res.Stats.CacheHit {
			t.Fatalf("clique8 PlanGraph missed the cache (err=%v)", err)
		}
	}); n > 4 {
		t.Errorf("clique8 PlanGraph hit: %v allocs, want <= 4", n)
	}

	for _, c := range []struct {
		name string
		g    *hypergraph.Graph
		max  float64
	}{
		{"chain12", workload.Chain(12, cfg), 9},
		{"cycle10", workload.Cycle(10, cfg), 9},
		{"star11", workload.Star(11, cfg), 10},
	} {
		doc := graphJSON(c.g)
		if _, err := p.PlanJSON(ctx, doc); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			q, err := doc.BuildQuery()
			if err != nil {
				t.Fatal(err)
			}
			if res, err := p.Plan(ctx, q); err != nil || !res.Stats.CacheHit {
				t.Fatalf("%s: BuildQuery+Plan missed the cache (err=%v)", c.name, err)
			}
		}); n > c.max+raceAllocs {
			t.Errorf("%s: BuildQuery+Plan hit: %v allocs, want <= %v", c.name, n, c.max+raceAllocs)
		}
	}
}
