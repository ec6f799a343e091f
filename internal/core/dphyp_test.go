package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/plan"
)

func chainGraph(n int) *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelations(n, "R", 100)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1, 0.1)
	}
	return g
}

func cycleGraph(n int) *hypergraph.Graph {
	g := chainGraph(n)
	g.AddSimpleEdge(n-1, 0, 0.1)
	return g
}

func starGraph(n int) *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelations(n, "R", 100)
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(0, i, 0.1)
	}
	return g
}

func cliqueGraph(n int) *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelations(n, "R", 100)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddSimpleEdge(i, j, 0.1)
		}
	}
	return g
}

// collectPairs runs DPhyp and returns the emitted csg-cmp-pairs in
// emission order.
func collectPairs(t *testing.T, g *hypergraph.Graph) []counting.Pair {
	t.Helper()
	var pairs []counting.Pair
	_, _, err := Solve(g, dp.Options{OnEmit: func(s1, s2 bitset.Set) {
		pairs = append(pairs, counting.Pair{S1: s1, S2: s2})
	}})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return pairs
}

// assertExactCcps checks that DPhyp emitted exactly the csg-cmp-pairs of
// the graph: no duplicates, none missing, all normalized, and in an order
// valid for dynamic programming (subset pairs before superset pairs).
func assertExactCcps(t *testing.T, g *hypergraph.Graph) {
	t.Helper()
	got := collectPairs(t, g)
	want := counting.CsgCmpPairs(g)

	seen := map[string]int{}
	for i, p := range got {
		if p.S1.Min() >= p.S2.Min() {
			t.Errorf("pair %d: %v|%v not normalized (min(S1) must precede min(S2))", i, p.S1, p.S2)
		}
		if prev, dup := seen[p.Key()]; dup {
			t.Errorf("pair %v|%v emitted twice (at %d and %d)", p.S1, p.S2, prev, i)
		}
		seen[p.Key()] = i
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d pairs, oracle says %d", len(got), len(want))
	}
	for _, p := range want {
		if _, ok := seen[p.Key()]; !ok {
			t.Errorf("missing csg-cmp-pair %v|%v", p.S1, p.S2)
		}
	}
	// DP order: every (S1',S2') with S1'⊆S1, S2'⊆S2 must appear before
	// (S1,S2) (§2.2).
	for i, p := range got {
		for j, q := range got {
			if i == j {
				continue
			}
			if q.S1.SubsetOf(p.S1) && q.S2.SubsetOf(p.S2) && j > i {
				t.Errorf("DP order violated: %v|%v (at %d) after %v|%v (at %d)",
					q.S1, q.S2, j, p.S1, p.S2, i)
			}
		}
	}
}

func TestExactCcpsStandardShapes(t *testing.T) {
	for n := 2; n <= 7; n++ {
		t.Run("chain", func(t *testing.T) { assertExactCcps(t, chainGraph(n)) })
		t.Run("star", func(t *testing.T) { assertExactCcps(t, starGraph(n)) })
		t.Run("clique", func(t *testing.T) { assertExactCcps(t, cliqueGraph(n)) })
		if n >= 3 {
			t.Run("cycle", func(t *testing.T) { assertExactCcps(t, cycleGraph(n)) })
		}
	}
}

func TestExactCcpsPaperExample(t *testing.T) {
	assertExactCcps(t, hypergraph.PaperExampleGraph())
}

func TestPaperExampleStats(t *testing.T) {
	g := hypergraph.PaperExampleGraph()
	p, stats, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if stats.CsgCmpPairs != 9 {
		t.Errorf("csg-cmp-pairs = %d, want 9", stats.CsgCmpPairs)
	}
	if !p.Rels.Equal(g.AllNodes()) {
		t.Errorf("plan covers %v", p.Rels)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
	// The only way across the hyperedge is {R1,R2,R3} x {R4,R5,R6}: the
	// root must join exactly these two sides.
	left, right := p.Left.Rels, p.Right.Rels
	want1, want2 := bitset.New(0, 1, 2), bitset.New(3, 4, 5)
	if !(left.Equal(want1) && right.Equal(want2) || left.Equal(want2) && right.Equal(want1)) {
		t.Errorf("root joins %v and %v, want the hyperedge sides", left, right)
	}
}

// TestExactCcpsRandomHypergraphs is the main differential test: on random
// connected hypergraphs, DPhyp must emit exactly the oracle's pair set.
func TestExactCcpsRandomHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6) // 3..8 relations
		g := randomHypergraph(rng, n)
		assertExactCcps(t, g)
	}
}

// randomHypergraph builds a connected hypergraph: spanning tree of simple
// edges plus random extra simple edges and hyperedges.
func randomHypergraph(rng *rand.Rand, n int) *hypergraph.Graph {
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation("R", float64(10+rng.Intn(1000)))
	}
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(rng.Intn(i), i, 0.05+rng.Float64()*0.5)
	}
	extras := rng.Intn(n)
	for k := 0; k < extras; k++ {
		if rng.Intn(2) == 0 {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddSimpleEdge(a, b, 0.05+rng.Float64()*0.5)
			}
			continue
		}
		var u, v bitset.Set
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				u = u.Add(i)
			case 1:
				v = v.Add(i)
			}
		}
		if !u.IsEmpty() && !v.IsEmpty() && u.Disjoint(v) {
			g.AddEdge(hypergraph.Edge{U: u, V: v, Sel: 0.05 + rng.Float64()*0.5})
		}
	}
	return g
}

// TestOptimalityAgainstBruteForce verifies Bellman optimality of DPhyp
// plans under C_out on random inner-join hypergraphs.
func TestOptimalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		g := randomHypergraph(rng, n)
		p, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, ok := counting.BruteForceCout(g)
		if !ok {
			t.Fatalf("trial %d: oracle found no plan but DPhyp did", trial)
		}
		if diff := p.Cost - want; diff > 1e-6*want+1e-9 || diff < -1e-6*want-1e-9 {
			t.Errorf("trial %d: DPhyp cost %g, optimal %g\n%s", trial, p.Cost, want, p)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("trial %d: invalid plan: %v", trial, err)
		}
	}
}

// Every join in the produced plan must be over graph-connected parts:
// cross-product-freeness.
func TestNoCrossProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g := randomHypergraph(rng, 3+rng.Intn(6))
		p, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.Walk(func(n *plan.Node) {
			if n.IsLeaf() {
				return
			}
			if !g.ConnectsTo(n.Left.Rels, n.Right.Rels) {
				t.Errorf("cross product: %v x %v", n.Left.Rels, n.Right.Rels)
			}
			if !g.IsConnected(n.Rels) {
				t.Errorf("join produces disconnected set %v", n.Rels)
			}
		})
	}
}

// The trace of the Figure 2 graph reaches the milestones the paper
// describes: the final pair joins the hyperedge sides, and complements
// are grown through the canonical node R4.
func TestTracePaperExample(t *testing.T) {
	g := hypergraph.PaperExampleGraph()
	tr := &dp.Trace{}
	if _, _, err := Solve(g, dp.Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	pairs := tr.Pairs()
	if len(pairs) != 9 {
		t.Fatalf("trace has %d pairs, want 9:\n%s", len(pairs), tr)
	}
	last := pairs[len(pairs)-1]
	if !last.S1.Equal(bitset.New(0, 1, 2)) || !last.S2.Equal(bitset.New(3, 4, 5)) {
		t.Errorf("last pair %v|%v, want {R1,R2,R3}|{R4,R5,R6}", last.S1, last.S2)
	}
	if tr.String() == "" {
		t.Error("trace rendering empty")
	}
}

func TestDisconnectedGraphFails(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(3, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	if _, _, err := Solve(g, dp.Options{}); err == nil {
		t.Error("disconnected graph must fail")
	}
	// Definition-3 disconnection (hyperedge into an internally
	// disconnected hypernode) must fail too.
	g2 := hypergraph.New()
	g2.AddRelations(3, "R", 10)
	g2.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(1, 2), Sel: 0.5})
	if _, _, err := Solve(g2, dp.Options{}); err == nil {
		t.Error("Definition-3 disconnected graph must fail")
	}
}

func TestEmptyGraphFails(t *testing.T) {
	if _, _, err := Solve(hypergraph.New(), dp.Options{}); err == nil {
		t.Error("empty graph must fail")
	}
}

func TestSingleRelation(t *testing.T) {
	g := hypergraph.New()
	g.AddRelation("only", 42)
	p, stats, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLeaf() || p.Card != 42 {
		t.Errorf("plan = %+v", p)
	}
	if stats.CsgCmpPairs != 0 {
		t.Errorf("pairs = %d", stats.CsgCmpPairs)
	}
}

func TestFilterRejectsEverything(t *testing.T) {
	g := chainGraph(3)
	reject := func(left, right bitset.Set, conn []dp.EdgeRef) bool { return false }
	_, stats, err := Solve(g, dp.Options{Filter: reject})
	if err == nil {
		t.Error("all-rejecting filter must leave no final plan")
	}
	if stats.FilterReject == 0 {
		t.Error("filter rejections must be counted")
	}
}

func TestFilterPassthroughMatchesUnfiltered(t *testing.T) {
	g := cycleGraph(6)
	accept := func(left, right bitset.Set, conn []dp.EdgeRef) bool { return true }
	p1, s1, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, err := Solve(g, dp.Options{Filter: accept})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cost != p2.Cost {
		t.Errorf("filtered cost %g != unfiltered %g", p2.Cost, p1.Cost)
	}
	if s1.CsgCmpPairs != s2.CsgCmpPairs {
		t.Errorf("pair counts differ: %d vs %d", s1.CsgCmpPairs, s2.CsgCmpPairs)
	}
}

// Generalized hyperedges (§6): DPhyp must handle (u,v,w) edges without
// modification and find plans that place w-relations on either side.
func TestGeneralizedHyperedge(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(3, "R", 100)
	g.AddSimpleEdge(0, 1, 0.1)
	// Predicate over R0, R2 with R1 movable to either side. The only
	// Definition-3-valid root partition is ({R0,R1}, {R2}) with R1 placed
	// on the left of the generalized edge.
	g.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(2), W: bitset.New(1), Sel: 0.2})
	p, _, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !p.Rels.Equal(g.AllNodes()) {
		t.Errorf("plan covers %v", p.Rels)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	l, r := p.Left.Rels, p.Right.Rels
	if !(l.Equal(bitset.New(0, 1)) && r.Equal(bitset.New(2)) || l.Equal(bitset.New(2)) && r.Equal(bitset.New(0, 1))) {
		t.Errorf("root joins %v and %v, want {R0,R1} with {R2}", l, r)
	}
	assertExactCcps(t, g)

	// An unplaceable w (no way to make both sides connected) must fail.
	g2 := hypergraph.New()
	g2.AddRelations(3, "R", 100)
	g2.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(2), W: bitset.New(1), Sel: 0.2})
	if _, _, err := Solve(g2, dp.Options{}); err == nil {
		t.Error("graph with stranded w-relation must have no plan")
	}
}

// DPhyp statistics must match the §2.2 lower bound exactly: the number of
// emitted pairs equals the number of csg-cmp-pairs of the graph.
func TestStatsMatchLowerBound(t *testing.T) {
	for _, g := range []*hypergraph.Graph{
		chainGraph(6), cycleGraph(6), starGraph(6), cliqueGraph(5),
		hypergraph.PaperExampleGraph(),
	} {
		_, stats, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := counting.CountCsgCmpPairs(g)
		if stats.CsgCmpPairs != want {
			t.Errorf("pairs = %d, lower bound %d", stats.CsgCmpPairs, want)
		}
	}
}

func BenchmarkDPhypChain10(b *testing.B)  { benchGraph(b, chainGraph(10)) }
func BenchmarkDPhypCycle10(b *testing.B)  { benchGraph(b, cycleGraph(10)) }
func BenchmarkDPhypStar10(b *testing.B)   { benchGraph(b, starGraph(10)) }
func BenchmarkDPhypClique10(b *testing.B) { benchGraph(b, cliqueGraph(10)) }

func benchGraph(b *testing.B, g *hypergraph.Graph) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(g, dp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
