package dpsize

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/hypergraph"
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

// DPsize must emit exactly the csg-cmp-pairs (after normalization its
// emission set equals the oracle's, though in size order rather than
// DPhyp's traversal order).
func TestEmitsExactPairSet(t *testing.T) {
	for _, g := range []*hypergraph.Graph{
		chainGraph(6), cycleGraph(6), starGraph(6), hypergraph.PaperExampleGraph(),
	} {
		var got []counting.Pair
		_, _, err := Solve(g, dp.Options{OnEmit: func(s1, s2 bitset.Set) {
			got = append(got, counting.Normalize(s1, s2))
		}})
		if err != nil {
			t.Fatal(err)
		}
		want := counting.CsgCmpPairs(g)
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p.Key()] {
				t.Errorf("duplicate pair %v|%v", p.S1, p.S2)
			}
			seen[p.Key()] = true
		}
		if len(got) != len(want) {
			t.Errorf("emitted %d pairs, want %d", len(got), len(want))
		}
		for _, p := range want {
			if !seen[p.Key()] {
				t.Errorf("missing pair %v|%v", p.S1, p.S2)
			}
		}
	}
}

// Differential test: DPsize and DPhyp must agree on optimal cost for
// random hypergraphs (they search the same space).
func TestAgreesWithDPhyp(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		g := randomHypergraph(rng, 3+rng.Intn(6))
		p1, _, err1 := Solve(g, dp.Options{})
		p2, _, err2 := core.Solve(g, dp.Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: dpsize err=%v dphyp err=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if p1.Cost != p2.Cost {
			t.Errorf("trial %d: dpsize cost %g != dphyp %g", trial, p1.Cost, p2.Cost)
		}
	}
}

func TestOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		g := randomHypergraph(rng, 3+rng.Intn(4))
		p, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, ok := counting.BruteForceCout(g)
		if !ok {
			t.Fatal("oracle disagrees about solvability")
		}
		if p.Cost > want*(1+1e-9) {
			t.Errorf("trial %d: cost %g > optimal %g", trial, p.Cost, want)
		}
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
	p, stats, err := Solve(g, dp.Options{})
	if err != nil || !p.IsLeaf() {
		t.Fatalf("p=%v err=%v", p, err)
	}
	if stats.CsgCmpPairs != 0 {
		t.Error("no pairs expected")
	}
}

// DPsize does strictly more raw pair tests than DPhyp emits pairs; the
// paper's complexity point in one assertion.
func TestWastedWorkExceedsDPhyp(t *testing.T) {
	g := starGraph(8)
	_, sizeStats, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, hypStats, err := core.Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sizeStats.CsgCmpPairs != hypStats.CsgCmpPairs {
		t.Errorf("both must emit the same pairs: %d vs %d",
			sizeStats.CsgCmpPairs, hypStats.CsgCmpPairs)
	}
}
