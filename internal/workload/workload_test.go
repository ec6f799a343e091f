package workload

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/optree"
)

func cfg() Config { return DefaultConfig() }

func TestChainCycleStarClique(t *testing.T) {
	if g := Chain(5, cfg()); g.NumRels() != 5 || g.NumEdges() != 4 {
		t.Errorf("chain: %d rels %d edges", g.NumRels(), g.NumEdges())
	}
	if g := Cycle(5, cfg()); g.NumEdges() != 5 {
		t.Errorf("cycle: %d edges", g.NumEdges())
	}
	if g := Star(5, cfg()); g.NumEdges() != 4 {
		t.Errorf("star: %d edges", g.NumEdges())
	}
	if g := Clique(5, cfg()); g.NumEdges() != 10 {
		t.Errorf("clique: %d edges", g.NumEdges())
	}
	for _, g := range []*hypergraph.Graph{Chain(6, cfg()), Cycle(6, cfg()), Star(6, cfg()), Clique(5, cfg())} {
		if !g.IsConnected(g.AllNodes()) {
			t.Error("generated graph must be connected")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := CycleHyper(8, 2, cfg())
	b := CycleHyper(8, 2, cfg())
	if a.String() != b.String() {
		t.Error("same config must generate identical graphs")
	}
}

// TestCycleHyperPaperSplits verifies the split schedule against the
// paper's worked example for the 8-relation cycle: G1 has hyperedges
// ({R0,R1},{R6,R7}) and ({R2,R3},{R4,R5}); G2 additionally splits the
// first into ({R0},{R6}) and ({R1},{R7}); G3 splits the second into
// ({R2},{R4}) and ({R3},{R5}).
func TestCycleHyperPaperSplits(t *testing.T) {
	pairKey := func(u, v bitset.Set) string { return u.Key() + "|" + v.Key() }
	edgeSet := func(g *hypergraph.Graph) map[string]bool {
		out := map[string]bool{}
		for i := 8; i < g.NumEdges(); i++ { // first 8 are the cycle edges
			e := g.Edge(i)
			out[pairKey(e.U, e.V)] = true
		}
		return out
	}

	g0 := CycleHyper(8, 0, cfg())
	if got := edgeSet(g0); len(got) != 1 || !got[pairKey(bitset.Range(0, 4), bitset.Range(4, 8))] {
		t.Fatalf("G0 hyperedges wrong: %v", got)
	}

	g1 := CycleHyper(8, 1, cfg())
	if got := edgeSet(g1); len(got) != 2 || !got[pairKey(bitset.New(0, 1), bitset.New(6, 7))] || !got[pairKey(bitset.New(2, 3), bitset.New(4, 5))] {
		t.Fatalf("G1 hyperedges wrong: want ({R0,R1},{R6,R7}) and ({R2,R3},{R4,R5})")
	}

	g2 := CycleHyper(8, 2, cfg())
	got2 := edgeSet(g2)
	for _, w := range [][2]bitset.Set{
		{bitset.New(2, 3), bitset.New(4, 5)},
		{bitset.New(0), bitset.New(6)},
		{bitset.New(1), bitset.New(7)},
	} {
		if !got2[pairKey(w[0], w[1])] {
			t.Errorf("G2 missing %v -- %v", w[0], w[1])
		}
	}

	g3 := CycleHyper(8, 3, cfg())
	got3 := edgeSet(g3)
	for _, w := range [][2]bitset.Set{
		{bitset.New(0), bitset.New(6)},
		{bitset.New(1), bitset.New(7)},
		{bitset.New(2), bitset.New(4)},
		{bitset.New(3), bitset.New(5)},
	} {
		if !got3[pairKey(w[0], w[1])] {
			t.Errorf("G3 missing %v -- %v", w[0], w[1])
		}
	}
	if len(got3) != 4 {
		t.Errorf("G3 has %d hyperedges, want 4 simple ones", len(got3))
	}
}

func TestStarHyperStructure(t *testing.T) {
	// Fig. 4b: 8 satellites, hyperedge ({R1..R4},{R5..R8}).
	g := StarHyper(8, 0, cfg())
	if g.NumRels() != 9 {
		t.Fatalf("rels = %d, want 9", g.NumRels())
	}
	e := g.Edge(g.NumEdges() - 1)
	if !e.U.Equal(bitset.Range(1, 5)) || !e.V.Equal(bitset.Range(5, 9)) {
		t.Errorf("hyperedge = %v -- %v", e.U, e.V)
	}
	// Full split: all derived edges simple.
	gs := StarHyper(8, MaxSplits(4), cfg())
	for i := 8; i < gs.NumEdges(); i++ {
		if !gs.Edge(i).Simple() {
			t.Errorf("edge %d not simple after full split", i)
		}
	}
}

func TestMaxSplits(t *testing.T) {
	// From one (k,k) hyperedge to k simple edges takes k-1 splits.
	for _, half := range []int{2, 4, 8} {
		g := CycleHyper(2*half, 2*half/2-1, cfg())
		for i := 2 * half; i < g.NumEdges(); i++ {
			if !g.Edge(i).Simple() {
				t.Errorf("n=%d full split leaves non-simple edge %v -- %v",
					2*half, g.Edge(i).U, g.Edge(i).V)
			}
		}
	}
}

// All split stages must remain connected and solvable by DPhyp.
func TestAllSplitStagesSolvable(t *testing.T) {
	for splits := 0; splits <= 3; splits++ {
		for _, g := range []*hypergraph.Graph{
			CycleHyper(8, splits, cfg()),
			StarHyper(8, splits, cfg()),
		} {
			p, _, err := core.Solve(g, dp.Options{})
			if err != nil {
				t.Fatalf("splits=%d: %v", splits, err)
			}
			if !p.Rels.Equal(g.AllNodes()) {
				t.Errorf("splits=%d: incomplete plan", splits)
			}
		}
	}
}

// More splits enlarge the search space (more, smaller hyperedges admit
// more csg-cmp-pairs) — the mechanism behind the Fig. 5/6 curves.
func TestSplitsGrowSearchSpace(t *testing.T) {
	prev := -1
	for splits := 0; splits <= 3; splits++ {
		g := CycleHyper(8, splits, cfg())
		_, stats, err := core.Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CsgCmpPairs < prev {
			t.Errorf("splits=%d: pairs %d below previous %d", splits, stats.CsgCmpPairs, prev)
		}
		prev = stats.CsgCmpPairs
	}
}

func TestStarTreeShape(t *testing.T) {
	root, rels := StarTree(5, 2, cfg())
	if len(rels) != 5 {
		t.Fatalf("rels = %d", len(rels))
	}
	tr, err := optree.Analyze(root, rels, optree.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	ops := tr.Ops()
	if len(ops) != 4 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].Op != algebra.AntiJoin || ops[1].Op != algebra.AntiJoin {
		t.Error("first k operators must be antijoins")
	}
	if ops[2].Op != algebra.Join || ops[3].Op != algebra.Join {
		t.Error("remaining operators must be inner joins")
	}
	g := tr.Hypergraph(optree.TESEdges)
	if _, _, err := core.Solve(g, dp.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleTreeClosingPredicate(t *testing.T) {
	root, rels := CycleTree(6, 3, cfg())
	tr, err := optree.Analyze(root, rels, optree.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	ops := tr.Ops()
	last := ops[len(ops)-1]
	if !last.Pred.Tables.Has(0) {
		t.Error("last operator must carry the cycle-closing predicate")
	}
	for i := 0; i < 3; i++ {
		if ops[i].Op != algebra.LeftOuter {
			t.Errorf("op %d = %v, want left outer", i, ops[i].Op)
		}
	}
	g := tr.Hypergraph(optree.TESEdges)
	if _, _, err := core.Solve(g, dp.Options{}); err != nil {
		t.Fatal(err)
	}
}

// The §5.8 mechanism: more antijoins shrink the explored search space
// under the conservative rule (the basis of Fig. 8a).
func TestAntijoinsShrinkSearchSpace(t *testing.T) {
	var prev int
	for k := 0; k <= 7; k++ {
		root, rels := StarTree(8, k, cfg())
		tr, err := optree.Analyze(root, rels, optree.Conservative)
		if err != nil {
			t.Fatal(err)
		}
		g := tr.Hypergraph(optree.TESEdges)
		_, stats, err := core.Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if k > 0 && stats.CsgCmpPairs > prev {
			t.Errorf("k=%d: pairs %d exceed k=%d's %d", k, stats.CsgCmpPairs, k-1, prev)
		}
		prev = stats.CsgCmpPairs
	}
	// Fully antijoined: exactly n-1 pairs (§5.7's O(n)).
	root, rels := StarTree(8, 7, cfg())
	tr, _ := optree.Analyze(root, rels, optree.Conservative)
	_, stats, err := core.Solve(tr.Hypergraph(optree.TESEdges), dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CsgCmpPairs != 7 {
		t.Errorf("all-antijoin star pairs = %d, want 7", stats.CsgCmpPairs)
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		g := RandomSimple(rng, 6, 3, cfg())
		if !g.IsConnected(g.AllNodes()) {
			t.Error("random simple graph must be connected")
		}
		h := RandomHyper(rng, 6, 2, cfg())
		if !h.IsConnected(h.AllNodes()) {
			t.Error("random hypergraph must be connected")
		}
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { Cycle(2, cfg()) },
		func() { Star(1, cfg()) },
		func() { CycleHyper(7, 0, cfg()) },
		func() { StarHyper(3, 0, cfg()) },
		func() { StarTree(4, 4, cfg()) },
		func() { CycleTree(4, 4, cfg()) },
		func() { CycleHyper(8, 10, cfg()) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
