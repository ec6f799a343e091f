package dp

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/hypergraph"
)

func twoRelGraph(op algebra.Op) *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelation("L", 100)
	g.AddRelation("R", 50)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(1), Sel: 0.1, Op: op})
	return g
}

func TestInitSeedsSingletons(t *testing.T) {
	g := twoRelGraph(algebra.Join)
	b := NewBuilder(g, nil)
	b.Init()
	for i := 0; i < 2; i++ {
		p := b.Best(bitset.Single(i))
		if p == nil || !p.IsLeaf() || p.Rel != i {
			t.Fatalf("missing singleton plan for %d", i)
		}
	}
	if b.Model.Name() != "Cout" {
		t.Error("nil model must default to Cout")
	}
}

func TestEmitCsgCmpInnerJoinBothOrientations(t *testing.T) {
	g := twoRelGraph(algebra.Join)
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	if !b.Engine.EmitPair(bitset.New(0), bitset.New(1)) {
		t.Fatal("EmitPair declined a connected pair")
	}
	if b.Engine.Stats.CsgCmpPairs != 1 {
		t.Errorf("pairs = %d", b.Engine.Stats.CsgCmpPairs)
	}
	// Commutative: both orientations count as candidate plans, although
	// Cout, a symmetric model, prices them with one call.
	if b.Engine.Stats.CostedPlans != 2 {
		t.Errorf("costed = %d, want 2", b.Engine.Stats.CostedPlans)
	}
	p := b.Best(bitset.New(0, 1))
	if p == nil || p.Op != algebra.Join {
		t.Fatalf("plan = %v", p)
	}
	if p.Card != 100*50*0.1 {
		t.Errorf("card = %g", p.Card)
	}
}

func TestEmitCsgCmpNonCommutativeOrientation(t *testing.T) {
	g := twoRelGraph(algebra.AntiJoin)
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	// Emit with the pair swapped relative to the edge orientation: the
	// builder must still put the edge's U side on the left.
	b.Engine.EmitPair(bitset.New(1), bitset.New(0))
	if b.Engine.Stats.CostedPlans != 1 {
		t.Errorf("costed = %d, want 1 (non-commutative)", b.Engine.Stats.CostedPlans)
	}
	p := b.Best(bitset.New(0, 1))
	if p == nil {
		t.Fatal("no plan")
	}
	if p.Op != algebra.AntiJoin || p.Left.Rel != 0 || p.Right.Rel != 1 {
		t.Errorf("orientation wrong: %s", p.Compact())
	}
}

func TestDependentSwitch(t *testing.T) {
	g := twoRelGraph(algebra.Join)
	g.SetFree(1, bitset.New(0)) // R depends on L
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	p := b.Best(bitset.New(0, 1))
	if p == nil {
		t.Fatal("no plan")
	}
	if p.Op != algebra.DepJoin {
		t.Errorf("op = %v, want dep-join (§5.6)", p.Op)
	}
	if p.Left.Rel != 0 {
		t.Error("provider must be on the left")
	}
	// The reversed orientation (dependent side left) must be rejected.
	if b.Engine.Stats.InvalidReject != 1 {
		t.Errorf("invalid rejects = %d, want 1", b.Engine.Stats.InvalidReject)
	}
}

func TestDependentFullOuterImpossible(t *testing.T) {
	g := twoRelGraph(algebra.FullOuter)
	g.SetFree(1, bitset.New(0))
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	if b.Best(bitset.New(0, 1)) != nil {
		t.Error("dependent full outer join must be impossible")
	}
	if b.Engine.Stats.InvalidReject != 2 {
		t.Errorf("invalid rejects = %d, want 2 (both orientations)", b.Engine.Stats.InvalidReject)
	}
}

func TestFilterOrientationFlags(t *testing.T) {
	g := twoRelGraph(algebra.Join)
	b := NewBuilder(g, cost.Cout{})
	var seen [][2]bool // (left has R0, flipped flag)
	b.Filter = func(left, right bitset.Set, conn []EdgeRef) bool {
		seen = append(seen, [2]bool{left.Has(0), conn[0].Flipped})
		return true
	}
	b.Init()
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	if len(seen) != 2 {
		t.Fatalf("filter called %d times", len(seen))
	}
	for _, s := range seen {
		// When R0 is on the left, the stored orientation (U={R0}) is not
		// flipped, and vice versa.
		if s[0] == s[1] {
			t.Errorf("flip flag inconsistent with orientation: %v", s)
		}
	}
}

func TestAmbiguousOperatorCounting(t *testing.T) {
	g := hypergraph.New()
	g.AddRelation("A", 10)
	g.AddRelation("B", 10)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(1), Sel: 0.1, Op: algebra.SemiJoin})
	g.AddEdge(hypergraph.Edge{U: bitset.New(0), V: bitset.New(1), Sel: 0.2, Op: algebra.AntiJoin})
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	if b.Engine.Stats.AmbiguousOps != 1 {
		t.Errorf("ambiguous = %d, want 1", b.Engine.Stats.AmbiguousOps)
	}
	if b.Best(bitset.New(0, 1)) == nil {
		t.Error("plan must still be built")
	}
}

// TestEmitPairDeclinesNonPairs: EmitPair is the pair test. A pair no
// edge connects, and a pair with a side that has no memo entry, are not
// csg-cmp-pairs: EmitPair returns false and leaves the Stats, the OnEmit
// hook and the memo entries as they were.
func TestEmitPairDeclinesNonPairs(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(3, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	for _, c := range []struct {
		name   string
		S1, S2 bitset.Set
	}{
		{"unconnected", bitset.New(0), bitset.New(2)},
		{"unmemoed side", bitset.New(2), bitset.New(0, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(g, cost.Cout{})
			b.Init()
			emitted := 0
			b.Engine.OnEmit = func(_, _ bitset.Set) { emitted++ }
			stats, entries := b.Engine.Stats, b.Engine.Entries()
			if b.Engine.EmitPair(c.S1, c.S2) {
				t.Fatalf("EmitPair(%v, %v) = true, want false", c.S1, c.S2)
			}
			if b.Engine.Stats != stats || emitted != 0 || b.Engine.Entries() != entries {
				t.Errorf("declined pair changed the run: stats %+v -> %+v, OnEmit fired %d times, entries %d -> %d",
					stats, b.Engine.Stats, emitted, entries, b.Engine.Entries())
			}
			if b.Engine.Aborted() != nil {
				t.Errorf("declined pair aborted the run: %v", b.Engine.Aborted())
			}
		})
	}
}

func TestFinalErrors(t *testing.T) {
	g := hypergraph.New()
	g.AddRelation("A", 10)
	g.AddRelation("B", 10)
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	if _, err := b.Final(); err == nil {
		t.Error("Final must fail without a complete plan")
	}
}

// straddleGraph is a chain R0–R1–R2–R3 of simple edges with
// selectivity 0.5 over relations of 10 rows, plus the hyperedge
// ({R0,R2}, {R1,R3}) of selectivity 0.1 interleaved across it.
func straddleGraph() *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelations(4, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	g.AddSimpleEdge(2, 3, 0.5)
	g.AddSimpleEdge(1, 2, 0.5)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0, 2), V: bitset.New(1, 3), Sel: 0.1})
	return g
}

// Selectivity application: a hyperedge that never separates cleanly into
// (u ⊆ S1, v ⊆ S2) must still be charged exactly once, at the first node
// covering it.
func TestHyperedgeSelectivityChargedOnce(t *testing.T) {
	b := NewBuilder(straddleGraph(), cost.Cout{})
	b.Init()
	// Build ((R0 R1) (R2 R3)): the hyperedge's sides straddle the join.
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	b.Engine.EmitPair(bitset.New(2), bitset.New(3))
	b.Engine.EmitPair(bitset.New(0, 1), bitset.New(2, 3))
	p := b.Best(bitset.Full(4))
	if p == nil {
		t.Fatal("no plan")
	}
	// card = 10^4 * 0.5^3 (simple edges) * 0.1 (hyperedge) = 125.
	if p.Card != 125 {
		t.Errorf("card = %g, want 125 (hyperedge charged once)", p.Card)
	}
}

// TestPriceJoinWithoutConnectingEdge: PriceJoin prices a given join in
// its orientation even when no edge connects the sides, as IterDP's
// stitched plans can ask, charges no pair, and applies a hyperedge at
// the join that completes it.
func TestPriceJoinWithoutConnectingEdge(t *testing.T) {
	b := NewBuilder(straddleGraph(), cost.Cout{})
	b.Init()
	// ((R2 × R0) ⋈ (R1 × R3)): neither inner join has an edge.
	b.PriceJoin(bitset.New(2), bitset.New(0))
	b.PriceJoin(bitset.New(1), bitset.New(3))
	b.PriceJoin(bitset.New(0, 2), bitset.New(1, 3))
	p, err := b.Final()
	if err != nil {
		t.Fatal(err)
	}
	if p.Left.Left.Rel != 2 || p.Left.Card != 100 || len(p.Left.Edges) != 0 {
		t.Errorf("cross join priced as %s with card %g and edges %v, want R2 left, card 100, no edges",
			p.Left.Compact(), p.Left.Card, p.Left.Edges)
	}
	// card = 10^4 * 0.5^3 (simple edges) * 0.1 (hyperedge) = 125.
	if p.Card != 125 || len(p.Edges) != 4 {
		t.Errorf("root card %g with edges %v, want 125 with all four edges", p.Card, p.Edges)
	}
	if st := b.Engine.Stats; st.CsgCmpPairs != 0 || st.CostedPlans != 3 {
		t.Errorf("PriceJoin counted %d pairs and %d plans, want 0 and 3", st.CsgCmpPairs, st.CostedPlans)
	}
}

// TestFinalChecksRowPerEntry: a memo entry made outside BuildPair gets
// no incidence row, so the rows no longer follow arena handles, and
// Final must refuse to materialize the run.
func TestFinalChecksRowPerEntry(t *testing.T) {
	b := NewBuilder(twoRelGraph(algebra.Join), cost.Cout{})
	b.Init()
	b.Engine.Improve(bitset.New(0, 1), 0, 1, algebra.Join, algebra.PhysNone, 5, 5, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Final materialized a run with more memo entries than incidence rows")
		}
	}()
	b.Final()
}

// TestBuildPairAllocs pins the per-pair price stage allocation-free: on
// a warmed builder, pricing a pair — child lookups, the walk over the
// edges both sides touch, free tables, dependency checks, filter and
// Improve — allocates nothing, with incidence rows of one word or two.
// The plain row prices its inner joins with Cout's one call, and
// plain-hash prices them in both orientations, since Hash does not
// declare cost.Symmetric.
func TestBuildPairAllocs(t *testing.T) {
	g := straddleGraph()
	dep := g.Clone()
	dep.SetFree(3, bitset.New(0))
	gen := g.Clone()
	gen.AddEdge(hypergraph.Edge{U: bitset.New(1), V: bitset.New(3), W: bitset.New(0, 2), Sel: 0.2, Op: algebra.SemiJoin})
	clique := hypergraph.New()
	clique.AddRelations(12, "R", 10)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			clique.AddSimpleEdge(i, j, 0.5)
		}
	}
	for _, c := range []struct {
		name   string
		g      *hypergraph.Graph
		filter Filter
		model  cost.Model
	}{
		{"plain", g, nil, cost.Cout{}},
		{"plain-hash", g, nil, cost.Hash{}},
		{"dependent", dep, nil, cost.Cout{}},
		{"filter", g, func(_, _ bitset.Set, conn []EdgeRef) bool { return len(conn) > 0 }, cost.Cout{}},
		{"generalized", gen, nil, cost.Cout{}},
		{"clique12", clique, nil, cost.Cout{}}, // 66 edges: two words per incidence row
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.g, c.model)
			b.Filter = c.filter
			b.Init()
			b.Engine.EmitPair(bitset.New(0), bitset.New(1))
			b.Engine.EmitPair(bitset.New(2), bitset.New(3))
			S1, S2 := bitset.New(0, 1), bitset.New(2, 3)
			if n := testing.AllocsPerRun(100, func() { b.BuildPair(S1, S2) }); n != 0 {
				t.Errorf("BuildPair allocates %v times per pair, want 0", n)
			}
			if b.Best(bitset.Full(4)) == nil {
				t.Fatal("no plan for the full set")
			}
		})
	}
}
