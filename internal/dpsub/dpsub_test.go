package dpsub

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/hypergraph"
)

func cycleGraph(n int) *hypergraph.Graph {
	g := hypergraph.New()
	g.AddRelations(n, "R", 100)
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1, 0.1)
	}
	g.AddSimpleEdge(n-1, 0, 0.1)
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

func TestEmitsExactPairSet(t *testing.T) {
	for _, g := range []*hypergraph.Graph{
		cycleGraph(6), hypergraph.PaperExampleGraph(),
	} {
		var got []counting.Pair
		if _, _, err := Solve(g, dp.Options{OnEmit: func(s1, s2 bitset.Set) {
			got = append(got, counting.Normalize(s1, s2))
		}}); err != nil {
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

// The ascending-integer subset order respects DP dependencies: every
// composing pair of a set appears before the set is used as a side.
func TestDPOrder(t *testing.T) {
	g := cycleGraph(6)
	var pairs []counting.Pair
	if _, _, err := Solve(g, dp.Options{OnEmit: func(s1, s2 bitset.Set) {
		pairs = append(pairs, counting.Pair{S1: s1, S2: s2})
	}}); err != nil {
		t.Fatal(err)
	}
	lastCompose := map[string]int{}
	for i, p := range pairs {
		lastCompose[p.S1.Union(p.S2).Key()] = i
	}
	for i, p := range pairs {
		for _, side := range []bitset.Set{p.S1, p.S2} {
			if last, ok := lastCompose[side.Key()]; ok && last > i {
				t.Errorf("pair %d uses %v before its last composition at %d", i, side, last)
			}
		}
	}
}

func TestAgreesWithDPhyp(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		g := randomHypergraph(rng, 3+rng.Intn(6))
		p1, s1, err1 := Solve(g, dp.Options{})
		p2, s2, err2 := core.Solve(g, dp.Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: dpsub err=%v dphyp err=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if p1.Cost != p2.Cost {
			t.Errorf("trial %d: dpsub cost %g != dphyp %g", trial, p1.Cost, p2.Cost)
		}
		if s1.CsgCmpPairs != s2.CsgCmpPairs {
			t.Errorf("trial %d: pair counts differ %d vs %d", trial, s1.CsgCmpPairs, s2.CsgCmpPairs)
		}
	}
}

func TestDisconnectedFails(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(3, "R", 10)
	g.AddSimpleEdge(0, 1, 0.5)
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
