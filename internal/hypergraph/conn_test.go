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
