package dp_test

import (
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/dpccp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// TestRunContract checks the run contract once for every solver: each
// is driven only through dp.Options, so the hooks, limits, pool and
// empty-graph error behave the same whichever enumeration order runs.
func TestRunContract(t *testing.T) {
	for _, c := range []struct {
		name  string
		solve func(*hypergraph.Graph, dp.Options) (*plan.Node, dp.Stats, error)
		pairs int // csg-cmp-pairs emitted on cycle6
	}{
		{"dphyp", core.Solve, 75},
		{"dpsize", dpsize.Solve, 75},
		{"dpsub", dpsub.Solve, 75},
		{"dpccp", dpccp.Solve, 75},
		{"topdown", topdown.Solve, 75},
		{"goo", goo.Solve, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := c.solve(hypergraph.New(), dp.Options{}); !errors.Is(err, dp.ErrEmptyGraph) {
				t.Errorf("empty graph: err = %v, want dp.ErrEmptyGraph", err)
			}

			g := workload.Cycle(6, workload.DefaultConfig())
			g.Freeze()
			emitted := 0
			_, st, err := c.solve(g, dp.Options{OnEmit: func(S1, S2 bitset.Set) { emitted++ }})
			if err != nil {
				t.Fatal(err)
			}
			if emitted != st.CsgCmpPairs || st.CsgCmpPairs != c.pairs {
				t.Errorf("OnEmit fired %d times, Stats.CsgCmpPairs = %d, want both %d", emitted, st.CsgCmpPairs, c.pairs)
			}

			tr := obs.NewTrace()
			tr.Begin()
			pool := &memo.Pool{}
			if _, _, err := c.solve(g, dp.Options{Pool: pool, Explain: tr}); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			materialized := false
			for _, sp := range tr.Spans() {
				materialized = materialized || sp.Phase == obs.PhaseMaterialize
			}
			if !materialized {
				t.Errorf("explain trace has no %v span: %v", obs.PhaseMaterialize, tr.Spans())
			}

			// sync.Pool may drop entries (it does so randomly under
			// -race), so allow several runs; under normal scheduling the
			// second run already reuses the first run's engine.
			reused := false
			for i := 0; i < 32 && !reused; i++ {
				_, st, err = c.solve(g, dp.Options{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				reused = st.ArenaReused
			}
			if !reused {
				t.Error("no run on the same pool reported ArenaReused in 32 runs")
			}

			if _, _, err := c.solve(g, dp.Options{Limits: dp.Limits{MaxCsgCmpPairs: 1}}); !errors.Is(err, dp.ErrBudgetExhausted) {
				t.Errorf("MaxCsgCmpPairs 1: err = %v, want dp.ErrBudgetExhausted", err)
			}
		})
	}
}
