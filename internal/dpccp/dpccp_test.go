package dpccp

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/dp"
	"repro/internal/hypergraph"
)

func randomSimpleGraph(rng *rand.Rand, n int) *hypergraph.Graph {
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation("R", float64(10+rng.Intn(1000)))
	}
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(rng.Intn(i), i, 0.05+rng.Float64()*0.5)
	}
	for k := 0; k < rng.Intn(2*n); k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddSimpleEdge(a, b, 0.05+rng.Float64()*0.5)
		}
	}
	return g
}

// §4.4: "DPhyp performs exactly like DPccp on regular graphs." Both must
// emit the identical pair sequence, not merely the same set.
func TestIdenticalSequenceToDPhyp(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 40; trial++ {
		g := randomSimpleGraph(rng, 3+rng.Intn(7))
		var ccp, hyp []counting.Pair
		p1, _, err1 := Solve(g, dp.Options{OnEmit: func(a, b bitset.Set) {
			ccp = append(ccp, counting.Pair{S1: a, S2: b})
		}})
		p2, _, err2 := core.Solve(g, dp.Options{OnEmit: func(a, b bitset.Set) {
			hyp = append(hyp, counting.Pair{S1: a, S2: b})
		}})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if len(ccp) != len(hyp) {
			t.Fatalf("trial %d: %d pairs vs %d", trial, len(ccp), len(hyp))
		}
		for i := range ccp {
			if !ccp[i].Equal(hyp[i]) {
				t.Fatalf("trial %d: sequence diverges at %d: %v|%v vs %v|%v",
					trial, i, ccp[i].S1, ccp[i].S2, hyp[i].S1, hyp[i].S2)
			}
		}
		if p1.Cost != p2.Cost {
			t.Errorf("trial %d: costs differ %g vs %g", trial, p1.Cost, p2.Cost)
		}
	}
}

// DPccp never emits an invalid or duplicate pair (it meets the lower
// bound without tests).
func TestMeetsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 25; trial++ {
		g := randomSimpleGraph(rng, 3+rng.Intn(6))
		var got []counting.Pair
		if _, stats, err := Solve(g, dp.Options{OnEmit: func(a, b bitset.Set) {
			got = append(got, counting.Normalize(a, b))
		}}); err != nil {
			t.Fatal(err)
		} else if want := counting.CountCsgCmpPairs(g); stats.CsgCmpPairs != want {
			t.Errorf("trial %d: emitted %d, lower bound %d", trial, stats.CsgCmpPairs, want)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p.Key()] {
				t.Errorf("duplicate %v|%v", p.S1, p.S2)
			}
			seen[p.Key()] = true
		}
	}
}

func TestPanicsOnHyperedge(t *testing.T) {
	g := hypergraph.PaperExampleGraph()
	defer func() {
		if recover() == nil {
			t.Error("hyperedge input must panic")
		}
	}()
	Solve(g, dp.Options{})
}

func TestEmptyFails(t *testing.T) {
	if _, _, err := Solve(hypergraph.New(), dp.Options{}); err == nil {
		t.Error("empty graph must fail")
	}
}

func TestDisconnectedFails(t *testing.T) {
	g := hypergraph.New()
	g.AddRelations(2, "R", 10)
	if _, _, err := Solve(g, dp.Options{}); err == nil {
		t.Error("disconnected graph must fail")
	}
}
