package goo

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

func TestGreedyFindsValidPlans(t *testing.T) {
	cfg := workload.DefaultConfig()
	for _, g := range []*hypergraph.Graph{
		workload.Chain(8, cfg),
		workload.Cycle(8, cfg),
		workload.Star(8, cfg),
		workload.Clique(7, cfg),
		hypergraph.PaperExampleGraph(),
	} {
		p, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Rels.Equal(g.AllNodes()) {
			t.Error("incomplete plan")
		}
		if err := p.Validate(); err != nil {
			t.Error(err)
		}
	}
}

// Greedy cost must never beat the exact optimum, and should be close on
// benign graphs.
func TestGreedyNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	cfg := workload.DefaultConfig()
	for trial := 0; trial < 40; trial++ {
		g := workload.RandomHyper(rng, 3+rng.Intn(7), rng.Intn(3), cfg)
		greedy, _, err := Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := core.Solve(g, dp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Cost < opt.Cost*(1-1e-9) {
			t.Errorf("trial %d: greedy cost %g beats optimal %g", trial, greedy.Cost, opt.Cost)
		}
	}
}

// Greedy handles sizes far beyond exact DP.
func TestGreedyScales(t *testing.T) {
	g := workload.Chain(60, workload.DefaultConfig())
	p, _, err := Solve(g, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Relations() != 60 {
		t.Error("incomplete plan")
	}
}

func TestGreedyErrors(t *testing.T) {
	if _, _, err := Solve(hypergraph.New(), dp.Options{}); err == nil {
		t.Error("empty graph must fail")
	}
	g := hypergraph.New()
	g.AddRelations(2, "R", 10)
	if _, _, err := Solve(g, dp.Options{}); err == nil {
		t.Error("disconnected graph must fail")
	}
}
