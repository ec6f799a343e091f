package topdown

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/hypergraph"
)

func randomHypergraph(rng *rand.Rand, n int) *hypergraph.Graph {
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation("R", float64(10+rng.Intn(1000)))
	}
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(rng.Intn(i), i, 0.05+rng.Float64()*0.5)
	}
	for k := 0; k < rng.Intn(n); k++ {
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

// Top-down memoization explores exactly the csg-cmp-pairs reachable from
// the root set and must agree with DPhyp on cost.
func TestAgreesWithDPhyp(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 40; trial++ {
		g := randomHypergraph(rng, 3+rng.Intn(6))
		p1, _, err1 := Solve(g, dp.Options{})
		p2, _, err2 := core.Solve(g, dp.Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: topdown err=%v dphyp err=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if p1.Cost != p2.Cost {
			t.Errorf("trial %d: topdown cost %g != dphyp %g", trial, p1.Cost, p2.Cost)
		}
	}
}

// Memoization must emit each pair at most once.
func TestNoDuplicatePairs(t *testing.T) {
	g := hypergraph.PaperExampleGraph()
	seen := map[string]bool{}
	dups := 0
	if _, _, err := Solve(g, dp.Options{OnEmit: func(a, b bitset.Set) {
		p := counting.Normalize(a, b)
		if seen[p.Key()] {
			dups++
		}
		seen[p.Key()] = true
	}}); err != nil {
		t.Fatal(err)
	}
	if dups != 0 {
		t.Errorf("%d duplicate pairs", dups)
	}
	// Top-down only visits pairs reachable through connected root
	// partitions, which for this graph is all of them.
	if len(seen) != counting.CountCsgCmpPairs(g) {
		t.Errorf("visited %d pairs, want %d", len(seen), counting.CountCsgCmpPairs(g))
	}
}

func TestDisconnectedFails(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(2, "R", 10)
	if _, _, err := Solve(g, dp.Options{}); err == nil {
		t.Error("disconnected graph must fail")
	}
}

func TestEmptyFails(t *testing.T) {
	if _, _, err := Solve(hypergraph.New(), dp.Options{}); err == nil {
		t.Error("empty graph must fail")
	}
}

func TestSingleRelation(t *testing.T) {
	g := hypergraph.New()
	g.AddRelation("only", 7)
	p, _, err := Solve(g, dp.Options{})
	if err != nil || !p.IsLeaf() {
		t.Fatalf("p=%v err=%v", p, err)
	}
}
