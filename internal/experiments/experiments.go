// Package experiments defines every experiment of the paper's evaluation
// — the two tables of §4.2/§4.3, Figures 5, 6, and 7, and the two §5.8
// experiments of Figure 8 — as runnable series. cmd/dpbench executes and
// prints them; bench_test.go wraps them as testing.B benchmarks. Keeping
// the definitions in one place guarantees that both report the same
// workloads.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/hypergraph"
	"repro/internal/optree"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Runner performs one optimization of a prepared workload. Workload
// construction happens before the Runner is created, so timing a Runner
// measures pure optimization time, as the paper does. The context is
// threaded into the enumeration loops, so slow cells (16-relation
// DPsize/DPsub stars run for minutes) can be cut off with a deadline.
type Runner func(ctx context.Context) (*plan.Node, dp.Stats, error)

// Series is one experiment: a family of workloads swept over X, run by
// several competing configurations.
type Series struct {
	// ID is the stable identifier used by dpbench flags and EXPERIMENTS.md.
	ID string
	// Title describes the experiment as the paper captions it.
	Title string
	// XLabel names the sweep parameter.
	XLabel string
	// Xs are the sweep values.
	Xs []int
	// Algs names the competing configurations, in presentation order.
	Algs []string
	// Paper summarizes the expected result shape from the paper.
	Paper string
	// Make prepares a Runner for one (x, algorithm) cell.
	Make func(x int, alg string) Runner
}

func graphRunner(g *hypergraph.Graph, alg string) Runner {
	switch alg {
	case "dphyp":
		return func(ctx context.Context) (*plan.Node, dp.Stats, error) {
			return core.Solve(g, dp.Options{Limits: dp.Limits{Ctx: ctx}})
		}
	case "dpsize":
		return func(ctx context.Context) (*plan.Node, dp.Stats, error) {
			return dpsize.Solve(g, dp.Options{Limits: dp.Limits{Ctx: ctx}})
		}
	case "dpsub":
		return func(ctx context.Context) (*plan.Node, dp.Stats, error) {
			return dpsub.Solve(g, dp.Options{Limits: dp.Limits{Ctx: ctx}})
		}
	}
	panic("experiments: unknown algorithm " + alg)
}

var threeDP = []string{"dphyp", "dpsize", "dpsub"}

// cycleSeries builds a Fig. 5 style series over hyperedge splits.
func cycleSeries(id, title string, n int) Series {
	return Series{
		ID:     id,
		Title:  title,
		XLabel: "hyperedge splits",
		Xs:     seq(0, workload.MaxSplits(n/2)),
		Algs:   threeDP,
		Paper:  "DPhyp lowest everywhere; DPsize beats DPsub on large cycles",
		Make: func(x int, alg string) Runner {
			g := workload.CycleHyper(n, x, workload.DefaultConfig())
			return graphRunner(g, alg)
		},
	}
}

// starSeries builds a Fig. 6 style series over hyperedge splits.
func starSeries(id, title string, sat int) Series {
	return Series{
		ID:     id,
		Title:  title,
		XLabel: "hyperedge splits",
		Xs:     seq(0, workload.MaxSplits(sat/2)),
		Algs:   threeDP,
		Paper:  "DPhyp lowest by a large margin; DPsub beats DPsize on stars",
		Make: func(x int, alg string) Runner {
			g := workload.StarHyper(sat, x, workload.DefaultConfig())
			return graphRunner(g, alg)
		},
	}
}

// starRegularSeries is Fig. 7: star queries without hyperedges, swept
// over the number of relations.
func starRegularSeries(maxN int) Series {
	return Series{
		ID:     "fig7-star-regular",
		Title:  "Star Queries without Hyperedges (Fig. 7)",
		XLabel: "number of relations",
		Xs:     seq(3, maxN),
		Algs:   threeDP,
		Paper:  "log-scale separation grows with n; DPhyp ≪ DPsub < DPsize at small n, DPsub worst overall growth",
		Make: func(x int, alg string) Runner {
			g := workload.Star(x, workload.DefaultConfig())
			return graphRunner(g, alg)
		},
	}
}

// antijoinSeries is Fig. 8a: a left-deep star operator tree with an
// increasing number of antijoins; hyperedge-driven DPhyp versus the
// TES generate-and-test alternative.
func antijoinSeries(n int) Series {
	return Series{
		ID:     "fig8a-antijoin",
		Title:  fmt.Sprintf("Star Query with %d Relations, increasing antijoins (Fig. 8a)", n),
		XLabel: "number of anti-joins",
		Xs:     seq(0, n-1),
		Algs:   []string{"dphyp-hypernodes", "dphyp-tes"},
		Paper:  "both fall as antijoins restrict the space; hypernodes faster by orders of magnitude",
		Make: func(x int, alg string) Runner {
			root, rels := workload.StarTree(n, x, workload.DefaultConfig())
			tr, err := optree.Analyze(root, rels, optree.Conservative)
			if err != nil {
				panic(err)
			}
			switch alg {
			case "dphyp-hypernodes":
				g := tr.Hypergraph(optree.TESEdges)
				return func(ctx context.Context) (*plan.Node, dp.Stats, error) {
					return core.Solve(g, dp.Options{Limits: dp.Limits{Ctx: ctx}})
				}
			case "dphyp-tes":
				g := tr.Hypergraph(optree.SESEdges)
				f := tr.Filter(g)
				return func(ctx context.Context) (*plan.Node, dp.Stats, error) {
					return core.Solve(g, dp.Options{Filter: f, Limits: dp.Limits{Ctx: ctx}})
				}
			}
			panic("experiments: unknown algorithm " + alg)
		},
	}
}

// outerJoinSeries is Fig. 8b: a left-deep cycle operator tree with an
// increasing number of outer joins; DPhyp versus DPsize, both on the
// TES-derived hypergraph. (DPsub is excluded as in the paper: "DPsub is
// so slow that we excluded it".)
func outerJoinSeries(n int) Series {
	return Series{
		ID:     "fig8b-outerjoin",
		Title:  fmt.Sprintf("Cycle Query with %d Relations, increasing outer joins (Fig. 8b)", n),
		XLabel: "number of outer joins",
		Xs:     seq(0, n-1),
		Algs:   []string{"dphyp", "dpsize"},
		Paper:  "time dips then grows again (outer joins reorder among themselves); DPhyp < DPsize throughout",
		Make: func(x int, alg string) Runner {
			root, rels := workload.CycleTree(n, x, workload.DefaultConfig())
			tr, err := optree.Analyze(root, rels, optree.Conservative)
			if err != nil {
				panic(err)
			}
			g := tr.Hypergraph(optree.TESEdges)
			return graphRunner(g, alg)
		},
	}
}

// All returns every experiment at the paper's sizes.
func All() []Series {
	return []Series{
		{
			ID:     "table-cycle4",
			Title:  "Cycle queries with 4 relations (§4.2 table)",
			XLabel: "hyperedge splits",
			Xs:     []int{0, 1},
			Algs:   threeDP,
			Paper:  "only small differences, all far below a millisecond",
			Make: func(x int, alg string) Runner {
				g := workload.CycleHyper(4, x, workload.DefaultConfig())
				return graphRunner(g, alg)
			},
		},
		{
			ID:     "table-star4",
			Title:  "Star queries with 4 satellite relations (§4.3 table)",
			XLabel: "hyperedge splits",
			Xs:     []int{0, 1},
			Algs:   threeDP,
			Paper:  "DPsize ≈ 2x DPhyp; DPsub between",
			Make: func(x int, alg string) Runner {
				g := workload.StarHyper(4, x, workload.DefaultConfig())
				return graphRunner(g, alg)
			},
		},
		cycleSeries("fig5-cycle8", "Cycle Queries with 8 Relations (Fig. 5 left)", 8),
		cycleSeries("fig5-cycle16", "Cycle Queries with 16 Relations (Fig. 5 right)", 16),
		starSeries("fig6-star8", "Star Queries with 8 Relations (Fig. 6 left)", 8),
		starSeries("fig6-star16", "Star Queries with 16 Relations (Fig. 6 right)", 16),
		starRegularSeries(16),
		antijoinSeries(16),
		outerJoinSeries(16),
	}
}

// Quick returns reduced-size variants that finish in seconds, for use in
// `go test -bench` and smoke runs. IDs carry a -quick suffix where the
// size differs from the paper's.
func Quick() []Series {
	qs := []Series{
		{
			ID:     "table-cycle4",
			Title:  "Cycle queries with 4 relations (§4.2 table)",
			XLabel: "hyperedge splits",
			Xs:     []int{0, 1},
			Algs:   threeDP,
			Make: func(x int, alg string) Runner {
				g := workload.CycleHyper(4, x, workload.DefaultConfig())
				return graphRunner(g, alg)
			},
		},
		{
			ID:     "table-star4",
			Title:  "Star queries with 4 satellite relations (§4.3 table)",
			XLabel: "hyperedge splits",
			Xs:     []int{0, 1},
			Algs:   threeDP,
			Make: func(x int, alg string) Runner {
				g := workload.StarHyper(4, x, workload.DefaultConfig())
				return graphRunner(g, alg)
			},
		},
		cycleSeries("fig5-cycle8", "Cycle Queries with 8 Relations (Fig. 5 left)", 8),
		cycleSeries("fig5-cycle12-quick", "Cycle Queries, reduced to 12 relations (Fig. 5 right)", 12),
		starSeries("fig6-star8", "Star Queries with 8 Relations (Fig. 6 left)", 8),
		starSeries("fig6-star12-quick", "Star Queries, reduced to 12 satellites (Fig. 6 right)", 12),
		starRegularSeries(13),
		antijoinSeries(12),
		outerJoinSeries(12),
	}
	qs[6].ID = "fig7-star-regular-quick"
	qs[7].ID = "fig8a-antijoin-quick"
	qs[8].ID = "fig8b-outerjoin-quick"
	return qs
}

// ByID finds a series by identifier in the given set.
func ByID(set []Series, id string) (Series, bool) {
	for _, s := range set {
		if s.ID == id {
			return s, true
		}
	}
	return Series{}, false
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}
