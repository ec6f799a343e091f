package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// TestConnectedSetHypernodeNotSubsumed pins the case that separates
// Definition-3 connectivity from naive hypernode BFS: with the single
// edge ({b,c},{a}), the set {a,b,c} is NOT connected — no partition has
// both halves connected — even though a BFS that absorbs whole
// hypernodes would reach every node.
func TestConnectedSetHypernodeNotSubsumed(t *testing.T) {
	g := New()
	g.AddRelations(3, "R", 10)
	g.AddEdge(Edge{U: bitset.New(1, 2), V: bitset.New(0), Sel: 0.5})
	var sc ConnScratch
	if g.ConnectedSet(bitset.New(0, 1, 2), &sc) {
		t.Fatal("ConnectedSet({a,b,c}) = true; hyperedge ({b,c},{a}) alone must not connect it")
	}
	if g.IsConnected(bitset.New(0, 1, 2)) {
		t.Fatal("oracle disagrees: IsConnected should be false too")
	}
	// Adding the inner edge (b,c) makes {b,c} connected and the partition
	// {a} | {b,c} a valid Definition-3 witness.
	g.AddSimpleEdge(1, 2, 0.5)
	if !g.ConnectedSet(bitset.New(0, 1, 2), &sc) {
		t.Fatal("ConnectedSet({a,b,c}) = false after adding edge (b,c)")
	}
}

// TestConnectedSetMatchesOracle property-tests ConnectedSet against the
// recursive Definition-3 oracle IsConnected over random hypergraphs —
// simple edges, hyperedges, and generalized (u,v,w) edges — for every
// subset of the node set.
func TestConnectedSetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6) // 2..7 relations: 2^n subsets stay cheap
		g := New()
		g.AddRelations(n, "R", float64(10+rng.Intn(1000)))
		edges := 1 + rng.Intn(2*n)
		for e := 0; e < edges; e++ {
			switch rng.Intn(3) {
			case 0: // simple edge
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					g.AddSimpleEdge(a, b, 0.1+0.8*rng.Float64())
				}
			case 1: // hyperedge
				u, v := randHypernode(rng, n), randHypernode(rng, n)
				if !u.Overlaps(v) {
					g.AddEdge(Edge{U: u, V: v, Sel: 0.1 + 0.8*rng.Float64()})
				}
			default: // generalized edge with a free side
				u, v, w := randHypernode(rng, n), randHypernode(rng, n), randHypernode(rng, n)
				if !u.Overlaps(v) && !u.Overlaps(w) && !v.Overlaps(w) {
					g.AddEdge(Edge{U: u, V: v, W: w, Sel: 0.1 + 0.8*rng.Float64()})
				}
			}
		}
		g.Freeze()
		var sc ConnScratch
		all := g.AllNodes()
		for S := bitset.Empty.NextSubset(all); ; S = S.NextSubset(all) {
			want := g.IsConnected(S)
			if got := g.ConnectedSet(S, &sc); got != want {
				t.Fatalf("trial %d: ConnectedSet(%v) = %v, IsConnected = %v\n%v",
					trial, S, got, want, g)
			}
			if S.Equal(all) {
				break
			}
		}
	}
}

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

func BenchmarkConnectedSet(b *testing.B) {
	g := New()
	g.AddRelations(12, "R", 100)
	for i := 0; i < 11; i++ {
		g.AddSimpleEdge(i, i+1, 0.5)
	}
	g.AddEdge(Edge{U: bitset.New(0, 3), V: bitset.New(7, 9), Sel: 0.5})
	g.Freeze()
	var sc ConnScratch
	S := bitset.Range(0, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.ConnectedSet(S, &sc) {
			b.Fatal("expected connected")
		}
	}
}
