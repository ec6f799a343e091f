package repro

import (
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/iterdp"
	"repro/internal/plan"
)

// runIterDP dispatches a hypergraph to the large-query simplification
// tier (internal/iterdp), supplying DPhyp as the exact solver for the
// subproblems. A first-round subproblem is a cluster of the original
// graph and keeps the hyperedges that lie inside it, which DPccp does
// not accept; compression turns every later round's edges into simple
// edges.
//
// Subproblems run one after another and share the session's memo pool,
// as does the run that prices the stitched plan, so the tier's
// per-subproblem setup cost is a table memclr, not an allocation. The
// Budget limits apply to each subproblem individually (the engine
// resets its counters per run); cancellation through the limits'
// context applies to the whole tier, clustering loops included.
//
// Graphs the tier cannot handle (non-inner operators, dependent
// relations, graphs held together only by wide hyperedges) fail with an
// error wrapping ErrBudgetExhausted, which the Planner's standard
// fallback policy turns into a Greedy (GOO) plan.
func runIterDP(g *Graph, clusterSize int, run dp.Options) (*PlanNode, Stats, error) {
	exact := func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error) {
		sub.Freeze()
		return core.Solve(sub, dp.Options{Model: run.Model, Limits: run.Limits, Pool: run.Pool})
	}
	// The sub-solves deliberately do NOT receive the explain trace: a
	// 1000-relation run solves hundreds of subproblems, and per-subproblem
	// spans would blow the trace's fixed capacity. The tier records one
	// span per compression round instead.
	return iterdp.Solve(g, iterdp.Options{
		ClusterSize: clusterSize,
		Model:       run.Model,
		Pool:        run.Pool,
		Ctx:         run.Limits.Ctx,
		Exact:       exact,
		Explain:     run.Explain,
	})
}
