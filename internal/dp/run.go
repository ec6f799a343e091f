package dp

import (
	"errors"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
)

// ErrEmptyGraph is returned by every solver for a graph without
// relations.
var ErrEmptyGraph = errors.New("dp: empty hypergraph")

// Options is the run contract shared by every solver in this
// repository: DPhyp, DPsize, DPsub, DPccp, TopDown and GOO differ only
// in how they enumerate csg-cmp-pairs, so one value configures any of
// them. A solver ignores the fields it has no use for.
type Options struct {
	// Model is the cost model; cost.Default() when nil.
	Model cost.Model

	// Filter enables the generate-and-test paradigm of §5.8: candidate
	// plans are enumerated from the (smaller-edged) graph and rejected
	// late, inside EmitCsgCmp. Used to reproduce the "DPhyp TESs" curve
	// of Fig. 8a. Nil for the pure hypergraph-driven mode.
	Filter Filter

	// OnEmit observes csg-cmp-pairs in emission order (tests, traces).
	OnEmit func(S1, S2 bitset.Set)

	// Limits bounds the run: cancellation is polled inside the
	// enumeration loops, and budget trips abort with
	// ErrBudgetExhausted. The zero value imposes no bounds.
	Limits Limits

	// Pool, when non-nil, supplies recycled memo engines (table,
	// arena, and backend scratch) from previous runs.
	Pool *memo.Pool

	// Entries is the number of memo entries the run makes, for a solver
	// that knows it: Greedy and IterDP's replay make 2n−1. It pre-sizes
	// the plan builder's incidence rows; zero pre-sizes them for
	// memo.EntryHint(n) entries, the dense end the memo table is always
	// sized for.
	Entries int

	// Explain, when non-nil, receives phase spans for the run (the
	// engine records the materialize phase; the planner wraps the whole
	// enumeration).
	Explain *obs.Trace

	// Parallelism is ignored: every enumeration runs on one goroutine.
	//
	// Deprecated: DPsub's level-parallel mode, the last one, was deleted
	// because no workload it served beat serial DPccp. The field stays
	// so existing callers compile.
	Parallelism int

	// Trace, when non-nil, records DPhyp's traversal steps analogous to
	// Fig. 3. The other solvers leave it empty.
	Trace *Trace
}

// Run executes one enumeration under the shared contract. It takes an
// engine from opts.Pool, applies the hooks and limits, fails a graph
// without relations with ErrEmptyGraph, and seeds the base relations.
// It then calls enumerate with the run's Builder, and materializes the
// plan covering all relations unless enumerate failed. The engine goes
// back to the pool before Run returns; the plan is materialized out of
// the arena and stays valid. The Stats are returned on error too, so a
// caller can account for an aborted run.
func Run(g *hypergraph.Graph, opts Options, enumerate func(b *Builder) error) (*plan.Node, Stats, error) {
	e, b := NewRun(opts.Pool, g, opts.Model, opts.Entries)
	defer opts.Pool.Put(e)
	b.Filter = opts.Filter
	e.OnEmit = opts.OnEmit
	e.SetLimits(opts.Limits)
	e.SetTrace(opts.Explain)
	if g.NumRels() == 0 {
		return nil, e.Stats, ErrEmptyGraph
	}
	opts.Trace.reset()
	b.Init()
	if err := enumerate(b); err != nil {
		return nil, e.Stats, err
	}
	p, err := b.Final()
	return p, e.Stats, err
}
