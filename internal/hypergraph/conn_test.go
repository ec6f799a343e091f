package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// TestConnectivityMatchesComponents checks the index's reachability
// against Components on random sparse hypergraphs on both sides of the
// one-word boundary: the whole graph against Components itself, the
// skeleton against Components of a copy holding only the simple edges.
// Up to 64 relations an index rebuild allocates only its neighbour
// table.
func TestConnectivityMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(130)
		g, skel := New(), New()
		g.AddRelations(n, "R", 10)
		skel.AddRelations(n, "R", 10)
		for e := rng.Intn(n + 2); e > 0; e-- {
			u, v := randHypernode(rng, n), randHypernode(rng, n)
			if u.Overlaps(v) {
				continue
			}
			g.AddEdge(Edge{U: u, V: v, Sel: 0.5})
			if g.Edge(g.NumEdges() - 1).Simple() {
				skel.AddEdge(Edge{U: u, V: v, Sel: 0.5})
			}
		}
		whole, skeleton := g.Connectivity()
		if want := len(g.Components()) <= 1; whole != want {
			t.Fatalf("trial %d: whole = %v, Components says %v\n%v", trial, whole, want, g)
		}
		if want := len(skel.Components()) <= 1; skeleton != want {
			t.Fatalf("trial %d: skeleton = %v, Components of the simple edges says %v\n%v", trial, skeleton, want, g)
		}
		if n <= 64 {
			if a := testing.AllocsPerRun(5, func() { g.invalidate(); g.Freeze() }); a > 1 {
				t.Fatalf("trial %d: index rebuild of %d relations made %v allocations, want 1", trial, n, a)
			}
		}
	}
}

func randHypernode(rng *rand.Rand, n int) bitset.Set {
	s := bitset.Single(rng.Intn(n))
	for rng.Intn(3) == 0 {
		s = s.Add(rng.Intn(n))
	}
	return s
}

// unionByScan is SimpleNeighborUnion's reference: for every element of
// S, the partners of every simple edge touching it, read off the edges.
func unionByScan(g *Graph, S bitset.Set) bitset.Set {
	var su bitset.Set
	for i := S.NextElem(0); i >= 0; i = S.NextElem(i + 1) {
		for ei := 0; ei < g.NumEdges(); ei++ {
			e := g.Edge(ei)
			switch {
			case !e.Simple():
			case e.U.Has(i):
				su = su.Union(e.V)
			case e.V.Has(i):
				su = su.Union(e.U)
			}
		}
	}
	return su
}

// TestSimpleNeighborUnionMatchesScan checks SimpleNeighborUnion against
// an element-by-element union on random graphs of 64 relations, the
// widest whose partners the index holds as words, and 65, the first
// that holds them as sets, with random sets of both widths; and on a
// frozen graph given an edge afterwards, whose index must be rebuilt.
func TestSimpleNeighborUnionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		n := g.NumRels()
		for trial := 0; trial < 300; trial++ {
			var S bitset.Set
			for k := 1 + rng.Intn(n/2); k > 0; k-- {
				S = S.Add(rng.Intn(n))
			}
			if got, want := g.SimpleNeighborUnion(S), unionByScan(g, S); !got.Equal(want) {
				t.Fatalf("%d relations: SimpleNeighborUnion(%v) = %v, scan gives %v", n, S, got, want)
			}
		}
	}
	for _, n := range []int{64, 65} {
		g := New()
		g.AddRelations(n, "R", 10)
		for e := 0; e < 2*n; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddSimpleEdge(a, b, 0.5)
			}
		}
		g.AddEdge(Edge{U: bitset.New(0, n-1), V: bitset.New(1), Sel: 0.5})
		g.Freeze()
		check(t, g)

		// An edge added after Freeze must show in the next union.
		g.AddSimpleEdge(n-1, n-2, 0.5)
		if su := g.SimpleNeighborUnion(bitset.Single(n - 1)); !su.Has(n - 2) {
			t.Fatalf("%d relations: edge added after Freeze missing from %v", n, su)
		}
		check(t, g)
	}
}
