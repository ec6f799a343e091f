package core

import (
	"testing"

	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/workload"
)

// The evaluation's hypergraph families (Fig. 4) must also be enumerated
// exactly: for every split stage of the 8-relation cycle and star
// workloads, DPhyp's emitted pairs equal the exhaustive oracle's.
func TestExactCcpsEvaluationWorkloads(t *testing.T) {
	cfg := workload.DefaultConfig()
	for splits := 0; splits <= 3; splits++ {
		t.Run("cycle8", func(t *testing.T) {
			assertExactCcps(t, workload.CycleHyper(8, splits, cfg))
		})
		t.Run("star8", func(t *testing.T) {
			assertExactCcps(t, workload.StarHyper(8, splits, cfg))
		})
	}
	t.Run("cycle4", func(t *testing.T) {
		for splits := 0; splits <= 1; splits++ {
			assertExactCcps(t, workload.CycleHyper(4, splits, cfg))
		}
	})
	t.Run("star4", func(t *testing.T) {
		for splits := 0; splits <= 1; splits++ {
			assertExactCcps(t, workload.StarHyper(4, splits, cfg))
		}
	})
}

// Splitting hyperedges only ever adds csg-cmp-pairs (the derived edges
// are strictly weaker constraints), which is why the Fig. 5/6 curves
// grow with the split count.
func TestSplitsMonotoneSearchSpace(t *testing.T) {
	cfg := workload.DefaultConfig()
	families := []func(splits int) *hypergraph.Graph{
		func(s int) *hypergraph.Graph { return workload.CycleHyper(8, s, cfg) },
		func(s int) *hypergraph.Graph { return workload.StarHyper(8, s, cfg) },
	}
	for fi, family := range families {
		prev := -1
		for splits := 0; splits <= 3; splits++ {
			_, stats, err := Solve(family(splits), dp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.CsgCmpPairs < prev {
				t.Errorf("family %d: pairs shrank at %d splits: %d < %d",
					fi, splits, stats.CsgCmpPairs, prev)
			}
			prev = stats.CsgCmpPairs
		}
	}
}
