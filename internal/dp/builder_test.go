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
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
	if b.Engine.Stats.CsgCmpPairs != 1 {
		t.Errorf("pairs = %d", b.Engine.Stats.CsgCmpPairs)
	}
	// Commutative: both orientations priced.
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

func TestEmitWithoutEdgePanics(t *testing.T) {
	g := hypergraph.New()
	g.AddRelation("A", 10)
	g.AddRelation("B", 10)
	b := NewBuilder(g, cost.Cout{})
	b.Init()
	defer func() {
		if recover() == nil {
			t.Error("EmitCsgCmp without a connecting edge must panic")
		}
	}()
	b.Engine.EmitPair(bitset.New(0), bitset.New(1))
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

// Selectivity application: a hyperedge that never separates cleanly into
// (u ⊆ S1, v ⊆ S2) must still be charged exactly once, at the first node
// covering it.
func TestHyperedgeSelectivityChargedOnce(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(4, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	g.AddSimpleEdge(2, 3, 0.5)
	g.AddSimpleEdge(1, 2, 0.5)
	// Hyperedge interleaved across the simple-edge structure.
	g.AddEdge(hypergraph.Edge{U: bitset.New(0, 2), V: bitset.New(1, 3), Sel: 0.1})
	b := NewBuilder(g, cost.Cout{})
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

// TestBuildPairAllocs pins the per-pair price stage allocation-free: on
// a warmed builder, pricing a pair — edge pass, child lookups, free
// tables, dependency checks, filter and Improve — allocates nothing.
func TestBuildPairAllocs(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(4, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
	g.AddSimpleEdge(2, 3, 0.5)
	g.AddSimpleEdge(1, 2, 0.5)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0, 2), V: bitset.New(1, 3), Sel: 0.1})
	dep := g.Clone()
	dep.SetFree(3, bitset.New(0))
	for _, c := range []struct {
		name   string
		g      *hypergraph.Graph
		filter Filter
	}{
		{"plain", g, nil},
		{"dependent", dep, nil},
		{"filter", g, func(_, _ bitset.Set, conn []EdgeRef) bool { return len(conn) > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder(c.g, cost.Cout{})
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
