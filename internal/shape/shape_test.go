package shape

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// TestClassifyCanonicalShapes: every workload generator maps to its
// class across a range of sizes.
func TestClassifyCanonicalShapes(t *testing.T) {
	cfg := workload.DefaultConfig()
	cases := []struct {
		name string
		g    *hypergraph.Graph
		want Class
	}{
		{"chain1", workload.Chain(1, cfg), Chain},
		{"chain2", workload.Chain(2, cfg), Chain},
		{"triangle", workload.Cycle(3, cfg), Clique}, // C3 = K3; clique has precedence
		{"grid2x2", workload.Grid(2, 2, cfg), Cycle}, // 2×2 lattice = C4
	}
	for n := 3; n <= 12; n++ {
		cases = append(cases, struct {
			name string
			g    *hypergraph.Graph
			want Class
		}{fmt.Sprintf("chain%d", n), workload.Chain(n, cfg), Chain})
	}
	for n := 4; n <= 12; n++ {
		cases = append(cases,
			struct {
				name string
				g    *hypergraph.Graph
				want Class
			}{fmt.Sprintf("cycle%d", n), workload.Cycle(n, cfg), Cycle},
			struct {
				name string
				g    *hypergraph.Graph
				want Class
			}{fmt.Sprintf("star%d", n), workload.Star(n, cfg), Star})
	}
	for n := 3; n <= 10; n++ {
		cases = append(cases, struct {
			name string
			g    *hypergraph.Graph
			want Class
		}{fmt.Sprintf("clique%d", n), workload.Clique(n, cfg), Clique})
	}
	for _, dims := range [][2]int{{2, 3}, {2, 5}, {3, 3}, {3, 4}, {4, 4}} {
		cases = append(cases, struct {
			name string
			g    *hypergraph.Graph
			want Class
		}{fmt.Sprintf("grid%dx%d", dims[0], dims[1]), workload.Grid(dims[0], dims[1], cfg), Grid})
	}
	for _, c := range cases {
		p := Classify(c.g)
		if p.Class != c.want {
			t.Errorf("%s: classified %v, want %v (profile %+v)", c.name, p.Class, c.want, p)
		}
		if p.Rels != c.g.NumRels() {
			t.Errorf("%s: Rels = %d, want %d", c.name, p.Rels, c.g.NumRels())
		}
		// The first call built the graph's index; from then on the
		// router's per-call classification allocates nothing.
		if a := testing.AllocsPerRun(10, func() { Classify(c.g) }); a != 0 {
			t.Errorf("%s: Classify made %v allocations on an indexed graph, want 0", c.name, a)
		}
	}
}

// TestClassifyHyperedgeFamilies: the §4 hyperedge families keep their
// skeleton class.
func TestClassifyHyperedgeFamilies(t *testing.T) {
	cfg := workload.DefaultConfig()
	// At 0 and 1 splits every extra edge is still a genuine hyperedge,
	// so the simple skeleton — and with it the class — is unchanged.
	// Deeper splits legitimately turn hyperedges into simple chords and
	// leave the canonical classes; those only need to stay well-formed.
	for splits := 0; splits <= 1; splits++ {
		p := Classify(workload.CycleHyper(8, splits, cfg))
		if p.Class != Cycle {
			t.Errorf("CycleHyper(8,%d): class %v, want cycle", splits, p.Class)
		}
		p = Classify(workload.StarHyper(8, splits, cfg))
		if p.Class != Star {
			t.Errorf("StarHyper(8,%d): class %v, want star", splits, p.Class)
		}
	}
	for splits := 2; splits <= 3; splits++ {
		for _, g := range []*hypergraph.Graph{
			workload.CycleHyper(8, splits, cfg),
			workload.StarHyper(8, splits, cfg),
		} {
			if p := Classify(g); p.Rels != g.NumRels() {
				t.Errorf("split %d: malformed profile %+v", splits, p)
			}
		}
	}
}

// TestClassifyEdgeCases: empty graphs, duplicate predicates,
// hyperedge-only connectivity, and genuinely irregular graphs.
func TestClassifyEdgeCases(t *testing.T) {
	if p := Classify(hypergraph.New()); p.Class != Mixed || p.Rels != 0 {
		t.Errorf("empty graph: %+v", p)
	}

	// Duplicate predicates between the same pair collapse: a chain with a
	// doubled edge is still a chain.
	g := workload.Chain(5, workload.DefaultConfig())
	g.AddSimpleEdge(1, 2, 0.5)
	if p := Classify(g); p.Class != Chain {
		t.Errorf("chain with duplicate edge: %+v", p)
	}

	// Two chains held together only by a hyperedge: skeleton is
	// disconnected, so the class is Mixed.
	g = hypergraph.New()
	for i := 0; i < 6; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), 100)
	}
	g.AddSimpleEdge(0, 1, 0.1)
	g.AddSimpleEdge(1, 2, 0.1)
	g.AddSimpleEdge(3, 4, 0.1)
	g.AddSimpleEdge(4, 5, 0.1)
	g.AddEdge(hypergraph.Edge{U: bitset.New(0, 1, 2), V: bitset.New(3, 4, 5), Sel: 0.05})
	p := Classify(g)
	if p.Class != Mixed {
		t.Errorf("hyperedge-bridged chains: %+v", p)
	}

	// A chain with one chord is none of the canonical shapes.
	g = workload.Chain(6, workload.DefaultConfig())
	g.AddSimpleEdge(0, 3, 0.2)
	if p := Classify(g); p.Class != Mixed {
		t.Errorf("chain with chord: class %v, want mixed", p.Class)
	}

	// Fully disconnected pair of relations.
	g = hypergraph.New()
	g.AddRelation("A", 10)
	g.AddRelation("B", 20)
	if p := Classify(g); p.Class != Mixed {
		t.Errorf("edgeless pair: %+v", p)
	}
}

// relabel rebuilds g with relation i stored at position perm[i],
// preserving structure exactly.
func relabel(g *hypergraph.Graph, perm []int) *hypergraph.Graph {
	inv := make([]int, len(perm))
	for old, nw := range perm {
		inv[nw] = old
	}
	ng := hypergraph.New()
	for nw := 0; nw < g.NumRels(); nw++ {
		r := g.Relation(inv[nw])
		ng.AddRelation(r.Name, r.Card)
	}
	mapSet := func(s bitset.Set) bitset.Set {
		var out bitset.Set
		s.ForEach(func(e int) { out = out.Add(perm[e]) })
		return out
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		ng.AddEdge(hypergraph.Edge{
			U: mapSet(e.U), V: mapSet(e.V), W: mapSet(e.W),
			Sel: e.Sel, Op: e.Op, Label: e.Label,
		})
	}
	return ng
}

// TestClassifyRelabelInvariance: the profile must not depend on relation
// numbering. Property-style: random permutations over every generator.
func TestClassifyRelabelInvariance(t *testing.T) {
	cfg := workload.DefaultConfig()
	rng := rand.New(rand.NewSource(42))
	graphs := []*hypergraph.Graph{
		workload.Chain(7, cfg),
		workload.Cycle(8, cfg),
		workload.Star(9, cfg),
		workload.Clique(6, cfg),
		workload.Grid(3, 4, cfg),
		workload.CycleHyper(8, 1, cfg),
		workload.StarHyper(8, 2, cfg),
		workload.RandomSimple(rng, 9, 4, cfg),
		workload.RandomHyper(rng, 8, 3, cfg),
	}
	for gi, g := range graphs {
		base := Classify(g)
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(g.NumRels())
			got := Classify(relabel(g, perm))
			// Selectivities and cardinalities move with the permutation;
			// every structural feature must be identical.
			if got != base {
				t.Fatalf("graph %d trial %d: profile changed under relabeling:\n got %+v\nwant %+v",
					gi, trial, got, base)
			}
		}
	}
}

// TestClassifyIsReadOnly: Classify on a frozen graph must not trip the
// race detector when called concurrently (exercised with -race in CI).
func TestClassifyIsReadOnly(t *testing.T) {
	g := workload.Star(10, workload.DefaultConfig())
	g.Freeze()
	done := make(chan Profile, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- Classify(g) }()
	}
	want := Classify(g)
	for i := 0; i < 8; i++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent Classify diverged: %+v vs %+v", got, want)
		}
	}
}
