package oracle

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/goo"
	"repro/internal/workload"
)

// FuzzSolverEquivalence is the cross-solver differential fuzzer: from a
// fuzzed (seed, class) pair it derives a random connected hypergraph,
// computes the brute-force optimum, and asserts that every exact solver
// under both a logical and a physical cost model reproduces it, and
// that Greedy stays valid and no cheaper than the optimum.
//
// CI runs this as a 30-second smoke (`-fuzz=FuzzSolverEquivalence
// -fuzztime=30s`); the seed corpus alone re-runs on every plain
// `go test`.
func FuzzSolverEquivalence(f *testing.F) {
	for i := int64(0); i < 14; i++ {
		f.Add(i*7919+3, uint8(i))
	}
	models := []cost.Model{cost.Cout{}, cost.Cmm{}, cost.Physical{}}
	f.Fuzz(func(t *testing.T, seed int64, class uint8) {
		g := genGraph(seed, int(class), workload.DefaultConfig())
		g.Freeze()

		for _, m := range models {
			optimal, err := Optimal(g, m)
			if err != nil {
				t.Fatalf("oracle failed on generated graph (seed %d class %d): %v", seed, class, err)
			}
			for _, s := range exactSolvers {
				if s.needsSimple && g.HasHyperedges() {
					continue
				}
				if err := checkSolver(g, m, s.name, s.solve, optimal); err != nil {
					t.Error(err)
				}
			}
			gp, _, err := goo.Solve(g, dp.Options{Model: m})
			if err != nil {
				t.Fatalf("greedy/%s failed: %v", m.Name(), err)
			}
			if err := gp.Validate(); err != nil {
				t.Fatalf("greedy/%s invalid plan: %v", m.Name(), err)
			}
			if gp.Cost < optimal.Cost && !costsMatch(gp.Cost, optimal.Cost) {
				t.Fatalf("greedy/%s cost %.10g beats the brute-force optimum %.10g",
					m.Name(), gp.Cost, optimal.Cost)
			}
		}
	})
}
