// Package memo is the shared enumeration engine behind every join
// enumeration algorithm in this repository (DPhyp, DPsize, DPsub, DPccp,
// TopDown, and the GOO fallback).
//
// The paper's central claim (Moerkotte & Neumann, SIGMOD 2008) is that
// join enumeration speed is decided by how cheaply csg-cmp-pairs are
// generated and memoized. This package owns the memoization half of that
// equation so the solvers can be pure enumerators:
//
//   - an open-addressing hash Table specialized for bitset.Set (uint64)
//     keys — the DP table mapping relation sets to plans — replacing the
//     generic map[bitset.Set]*plan.Node each solver used to carry;
//   - a flat plan-node arena addressed by indices, not pointers: during
//     enumeration no plan nodes are heap-allocated at all, table entries
//     are overwritten in place when a cheaper plan is found, and only the
//     winning tree is materialized into *plan.Node form by Final;
//   - centralized budget accounting (csg-cmp-pairs and costed plans),
//     context-cancellation polling (Step), cost-based pruning (Improve
//     keeps an entry only when it beats the incumbent), and the counting
//     and observation hooks (Stats, OnEmit);
//   - sync.Pool-backed reuse (Pool): a long-lived Planner recycles
//     engines across runs, so steady traffic re-enumerates into already-
//     allocated tables and arenas.
//
// The engine is deliberately ignorant of hypergraphs and cost models.
// The semantic half of plan construction — operator recovery, dependency
// constraints, conflict filters, selectivity and cardinality estimation,
// costing — lives in a Backend (internal/dp.Builder), which EmitPair
// calls for every admitted csg-cmp-pair. Solvers talk to the engine
// through EmitBase/EmitPair plus the Contains/Step/Aborted tests their
// enumeration orders need.
package memo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/plan"
)

// ErrBudgetExhausted reports that an enumeration stopped because it
// reached its Limits before connecting the full graph. Callers that can
// tolerate suboptimal plans should fall back to a heuristic (GOO) when
// they see this error; the Planner layer does so automatically.
var ErrBudgetExhausted = errors.New("memo: enumeration budget exhausted")

// Limits bounds one enumeration run. The zero value imposes no bounds.
//
// Ctx is polled periodically (every pollInterval units of enumeration
// work) so that cancellation interrupts even the O(3^n) inner loops of
// DPsub within microseconds. The two Max fields cap the paper's two
// effort yardsticks: csg-cmp-pairs emitted and candidate plans priced.
type Limits struct {
	Ctx            context.Context
	MaxCsgCmpPairs int // 0 = unlimited
	MaxCostedPlans int // 0 = unlimited
}

// pollInterval is the number of Step calls between context polls.
// Polling a context costs an atomic load plus a channel check; amortizing
// it keeps the per-iteration overhead of the enumeration loops below a
// nanosecond while still reacting to cancellation promptly.
const pollInterval = 1024

// Stats counts the work an enumeration performed. The number of
// csg-cmp-pairs is the paper's yardstick: "the minimal number of cost
// function calls of any dynamic programming algorithm is exactly the
// number of csg-cmp-pairs" (§2.2).
type Stats struct {
	CsgCmpPairs   int // EmitPair invocations (unordered pairs)
	CostedPlans   int // plans actually priced (2x for commutative ops)
	FilterReject  int // plans rejected by the generate-and-test filter
	InvalidReject int // plans rejected by dependency constraints
	AmbiguousOps  int // pairs connected by more than one non-inner edge
	TableEntries  int // number of connected subgraphs with a plan

	// Memo-engine accounting, filled by Final.
	MemoCapacity int  // open-addressing slots at the end of the run
	MemoGrows    int  // table rehashes during the run
	ArenaNodes   int  // arena slots used (≈ TableEntries; leaves included)
	ArenaReused  bool // the run started on recycled table/arena storage

	// Large-query tier accounting, filled by the iterative-DP driver
	// (internal/iterdp). Subproblems counts the exactly-solved
	// compressed subproblems (the final enumeration included); Rounds
	// counts the compression rounds the graph went through. Both are
	// zero for runs the exact solvers handled directly.
	Subproblems int
	Rounds      int

	// Session-level accounting, filled by the Planner layer.
	BudgetExhausted bool // exact enumeration stopped at its Limits
	FallbackGreedy  bool // a GOO plan was substituted after the budget trip
	CacheHit        bool // served from the planner's fingerprint cache

	// Adaptive-routing accounting, filled by the Planner when the
	// SolverAuto mode picked the algorithm. RoutedAlgorithm names the
	// solver the topology router selected — it stays put even when a
	// budget trip later downgraded the run to greedy (FallbackGreedy
	// then reports the downgrade alongside it).
	AutoRouted      bool   // the algorithm was chosen by SolverAuto
	Shape           string // topology class the router saw (e.g. "star")
	RoutedAlgorithm string // solver the router picked (e.g. "dphyp")

	// Planning-time SLO accounting, filled by the Planner on calls that
	// carried a WithPlanBudget deadline. The fields are per-request (set
	// after the cache, like the routing fields above), so cached entries
	// never leak one caller's budget into another's stats. SLORung is
	// the degradation ladder position of the algorithm that produced the
	// plan: 0 = exact enumeration, 1 = the iterative-DP tier, 2 = greedy.
	// SLODegraded reports that budget routing picked a lower rung than
	// topology routing alone would have; SLOMet that the call's wall
	// time actually fit inside PlanBudget.
	PlanBudget    time.Duration // the call's planning-time budget (0 = none)
	PredictedCost time.Duration // router's wall-time prediction for the chosen rung
	SLORung       int           // ladder rung that planned: 0 exact, 1 iterdp, 2 greedy
	SLODegraded   bool          // budget routing descended below the topology route
	SLOMet        bool          // wall time ≤ PlanBudget

	// Trace is the explain trace of this planning call, non-nil only
	// when the caller requested one (explain=1 or sampling). It is
	// per-request state: the plan cache strips it before storing stats,
	// so a cached Stats never carries another request's spans.
	Trace *obs.Trace
}

// Backend builds plans for emitted csg-cmp-pairs. It is the semantic
// half of the engine: internal/dp.Builder implements it with the §3.5
// plan-construction logic (operator recovery, dependency constraints,
// filters, costing) and stores candidates back through Improve.
type Backend interface {
	// BuildPair prices the csg-cmp-pair (S1, S2) and stores improvements.
	// Bookkeeping (pair budget, Stats.CsgCmpPairs, OnEmit) has already
	// happened in EmitPair by the time BuildPair runs.
	BuildPair(S1, S2 bitset.Set)
	// Release drops per-run references (graph, cost model, filter) so a
	// pooled engine does not pin them; the backend itself stays attached
	// to the engine and is revived by the next run.
	Release()
}

// node is one arena slot: a plan node with children addressed by arena
// index instead of pointer. Leaves have left == right == -1 and carry
// their base relation in rel; inner nodes reference an edge span in the
// engine's flat edge store.
type node struct {
	rels             bitset.Set
	card, cost       float64
	left, right      int32
	edgeOff, edgeCnt int32
	rel              int32
	op               algebra.Op
	phys             algebra.PhysOp
}

// Engine is the shared open-addressing memo: DP table, plan-node arena,
// budget and cancellation enforcement, and counting hooks. It is not
// safe for concurrent use; the Planner layer gives each in-flight plan
// its own pooled engine, and every enumeration runs on one goroutine.
type Engine struct {
	// Stats counts the run's work. The backend increments the reject
	// counters directly; everything else is maintained by the engine.
	Stats Stats

	// OnEmit, if set, observes every csg-cmp-pair in emission order.
	OnEmit func(S1, S2 bitset.Set)

	backend Backend

	table   Table
	scratch Table
	nodes   []node
	edges   []int32

	limits   Limits
	trace    *obs.Trace // explain trace, nil for untraced runs
	steps    int
	abortErr error
	warm     bool // storage was recycled from a previous run
}

// NewEngine returns an empty engine. Most callers obtain engines through
// a Pool instead, then attach a backend and Reset per run.
func NewEngine() *Engine { return &Engine{} }

// Reset prepares the engine for a run over n relations: the table is
// cleared (keeping its storage when possible), the arena truncated, and
// stats, limits, and hooks zeroed. Stats.ArenaReused reports whether the
// run actually starts on recycled storage: the engine came back from a
// pool and the table kept its arrays (a pooled engine whose table had to
// be reallocated for a larger query does not count as a reuse).
func (e *Engine) Reset(n int) {
	hint := EntryHint(n)
	kept := e.table.Reset(hint)
	// Arena storage follows the same shrink policy as the table: one
	// huge run must not pin its node and edge arrays on a pooled engine
	// forever.
	e.nodes = Recycle(e.nodes, hint)
	e.edges = Recycle(e.edges, hint)
	e.Stats = Stats{ArenaReused: e.warm && kept}
	e.OnEmit = nil
	e.limits = Limits{}
	e.trace = nil
	e.steps = 0
	e.abortErr = nil
}

// EntryHint is the number of memo entries Reset sizes a run over n
// relations for. A connected query of n relations has between n + (n-1)
// entries (chain) and 2^n - 1 (clique). The hint is the dense end, so
// cliques never rehash mid-run — sparse shapes pay a slightly larger
// memclr, dense ones avoid O(entries) rehash copies — capped at 4096
// entries, beyond which growth takes over (doubling from a 4096-entry
// table amortizes fine).
func EntryHint(n int) int {
	switch {
	case n <= 0:
		return 64
	case n < 12:
		return 1 << uint(n)
	default:
		return 1 << 12
	}
}

// SetBackend attaches the plan-construction backend.
func (e *Engine) SetBackend(b Backend) { e.backend = b }

// Backend returns the attached backend (nil on a fresh engine). Pools
// use it to revive the backend that traveled with a recycled engine.
func (e *Engine) Backend() Backend { return e.backend }

// SetLimits installs cancellation and budget bounds for the run.
func (e *Engine) SetLimits(l Limits) { e.limits = l }

// SetTrace attaches the run's explain trace (nil for untraced runs —
// every trace hook is nil-safe, so the untraced hot path pays nothing).
// The engine only records phase boundaries it owns (the materialize
// step in Final); solvers and the planner record their own phases on
// the same trace.
func (e *Engine) SetTrace(t *obs.Trace) { e.trace = t }

// Aborted returns the cancellation or budget error once a limit has
// tripped, and nil while the run may proceed. Solvers use it to unwind
// recursive enumeration cheaply.
func (e *Engine) Aborted() error { return e.abortErr }

// Step records one unit of enumeration work (a loop iteration or
// recursive call) and reports whether the run may continue. The context
// is polled every pollInterval steps; budget limits are enforced in
// EmitPair and ChargePlan where the counted events happen.
//
//dp:hotpath
func (e *Engine) Step() bool {
	if e.abortErr != nil {
		return false
	}
	if e.limits.Ctx == nil {
		return true
	}
	e.steps++
	if e.steps%pollInterval != 0 {
		return true
	}
	if err := e.limits.Ctx.Err(); err != nil {
		e.abortErr = err
		return false
	}
	// Fault injection rides the amortized poll, so an armed delay slows
	// the enumeration at pollInterval granularity — real, cancellable
	// work, which is what the chaos suite saturates servers with. The
	// Armed() gate keeps the disarmed cost to one atomic load per poll.
	if chaos.Armed() {
		if err := chaos.Inject(chaos.SiteMemoStep); err != nil {
			e.abortErr = err
			return false
		}
	}
	return true
}

// EmitBase seeds the memo with the access plan for base relation rel
// ("dpTable[{v}] = plan for v").
//
//dp:hotpath
func (e *Engine) EmitBase(rel int, card float64) {
	S := bitset.Single(rel)
	idx := int32(len(e.nodes))
	e.nodes = append(e.nodes, node{rels: S, card: card, left: -1, right: -1, rel: int32(rel)}) //nolint:hotpathalloc // arena growth is amortized; pooled runs reuse capacity
	e.table.Put(S, idx)
}

// EmitPair admits the csg-cmp-pair (S1, S2): it enforces the pair
// budget, counts the emission, fires the observation hook, and hands the
// pair to the backend for plan construction. Solvers must only emit
// pairs whose sides already have memo entries (subsets before supersets)
// and which are connected by at least one edge.
//
//dp:hotpath
func (e *Engine) EmitPair(S1, S2 bitset.Set) {
	if e.abortErr != nil {
		return
	}
	if max := e.limits.MaxCsgCmpPairs; max > 0 && e.Stats.CsgCmpPairs >= max {
		e.abortErr = pairBudgetErr(e.Stats.CsgCmpPairs, max)
		return
	}
	e.Stats.CsgCmpPairs++
	if e.OnEmit != nil {
		e.OnEmit(S1, S2)
	}
	e.backend.BuildPair(S1, S2)
}

// pairBudgetErr builds the csg-cmp-pair budget-trip error. Split out of
// EmitPair so the fmt machinery stays off the emission hot path.
//
//dp:coldpath runs at most once per enumeration, when the pair budget trips
func pairBudgetErr(n, max int) error {
	return fmt.Errorf("%w: %d csg-cmp-pairs emitted (limit %d)", ErrBudgetExhausted, n, max)
}

// ChargePlan accounts for one candidate plan about to be priced and
// reports whether the costed-plans budget allows it. On a trip the run
// is aborted with ErrBudgetExhausted.
//
//dp:hotpath
func (e *Engine) ChargePlan() bool {
	if max := e.limits.MaxCostedPlans; max > 0 && e.Stats.CostedPlans >= max {
		e.abortErr = planBudgetErr(e.Stats.CostedPlans, max)
		return false
	}
	e.Stats.CostedPlans++
	return true
}

// planBudgetErr builds the costed-plan budget-trip error off the hot
// path, like pairBudgetErr.
//
//dp:coldpath runs at most once per enumeration, when the plan budget trips
func planBudgetErr(n, max int) error {
	return fmt.Errorf("%w: %d plans costed (limit %d)", ErrBudgetExhausted, n, max)
}

// Contains reports whether S has a memo entry. This is the DP-table
// connectivity test of the bottom-up enumerators ("this exploits the
// fact that DP strategies enumerate subsets before supersets").
//
//dp:hotpath
func (e *Engine) Contains(S bitset.Set) bool {
	_, ok := e.table.Get(S)
	return ok
}

// Lookup returns the arena handle of the best plan for S. A handle names
// one relation set for the whole run.
//
//dp:hotpath
func (e *Engine) Lookup(S bitset.Set) (int32, bool) { return e.table.Get(S) }

// PlanInfo returns the estimated cardinality and cost of the plan at
// arena handle h.
//
//dp:hotpath
func (e *Engine) PlanInfo(h int32) (card, cost float64) {
	n := &e.nodes[h]
	return n.card, n.cost
}

// BestCost returns the cost of the incumbent plan for S, if any. The
// engine applies the incumbent comparison itself inside Improve; this
// accessor exists for tests and tooling that inspect pruning decisions.
func (e *Engine) BestCost(S bitset.Set) (float64, bool) {
	h, ok := e.Lookup(S)
	if !ok {
		return 0, false
	}
	return e.nodes[h].cost, true
}

// Improve stores the plan "left op right" for S if it beats the
// incumbent (cost-based pruning). Children are given by arena handle;
// edges lists the hypergraph edges applied at the node and is copied
// into the engine's flat edge store, so callers may reuse their slice.
// An improved entry overwrites its arena slot in place — safe because
// every enumeration order finalizes subsets before supersets, so no
// parent references the slot yet.
//
// Ties are broken order-independently: among equal-cost candidates the
// plan with the numerically lowest (left, right) relation-set pair
// wins, never the one that happened to arrive first. This makes the
// winning plan a pure function of the candidate *set*. Solvers emit
// pairs in different orders, so the tie-break is what keeps routing
// from changing the plan.
//
//dp:hotpath
func (e *Engine) Improve(S bitset.Set, left, right int32, op algebra.Op, phys algebra.PhysOp, card, cost float64, edges []int) {
	if h, ok := e.table.Get(S); ok {
		n := &e.nodes[h]
		if cost > n.cost {
			return
		}
		if cost == n.cost && !e.tieBeats(left, right, n.left, n.right) {
			return
		}
		off, cnt := e.storeEdges(edges, n.edgeOff, n.edgeCnt)
		*n = node{rels: S, card: card, cost: cost, left: left, right: right,
			edgeOff: off, edgeCnt: cnt, rel: -1, op: op, phys: phys}
		return
	}
	off, cnt := e.storeEdges(edges, 0, 0)
	h := int32(len(e.nodes))
	//nolint:hotpathalloc // arena growth is amortized; pooled runs reuse capacity
	e.nodes = append(e.nodes, node{rels: S, card: card, cost: cost, left: left, right: right,
		edgeOff: off, edgeCnt: cnt, rel: -1, op: op, phys: phys})
	e.table.Put(S, h)
}

// tieBeats reports whether the candidate split (newL, newR) wins an
// equal-cost tie against the incumbent split (oldL, oldR): the
// lexicographically smaller (left rels, right rels) pair is canonical.
func (e *Engine) tieBeats(newL, newR, oldL, oldR int32) bool {
	nl, ol := e.nodes[newL].rels, e.nodes[oldL].rels
	if !nl.Equal(ol) {
		return nl.Less(ol)
	}
	return e.nodes[newR].rels.Less(e.nodes[oldR].rels)
}

// storeEdges writes edges into the flat store, reusing the span
// (oldOff, oldCnt) of a node being overwritten when it is large enough.
func (e *Engine) storeEdges(edges []int, oldOff, oldCnt int32) (off, cnt int32) {
	if len(edges) == 0 {
		return 0, 0
	}
	cnt = int32(len(edges))
	if cnt <= oldCnt {
		off = oldOff
		for i, idx := range edges {
			e.edges[off+int32(i)] = int32(idx)
		}
		return off, cnt
	}
	off = int32(len(e.edges))
	for _, idx := range edges {
		e.edges = append(e.edges, int32(idx)) //nolint:hotpathalloc // edge-store growth is amortized; pooled runs reuse capacity
	}
	return off, cnt
}

// Scratch returns the engine's auxiliary table, cleared and sized for
// roughly hint entries. TopDown uses it as its failure memo (sets whose
// partitions are fully explored), so pooled engines recycle that
// storage along with the main table. One scratch user per run.
func (e *Engine) Scratch(hint int) *Table {
	e.scratch.Reset(hint)
	return &e.scratch
}

// ForEach calls f for every memoed relation set, in deterministic slot
// order. DPsize uses it to collect the connected subgraphs of each size.
func (e *Engine) ForEach(f func(S bitset.Set)) {
	e.table.ForEach(func(k bitset.Set, _ int32) { f(k) })
}

// Entries returns the current number of memo entries.
func (e *Engine) Entries() int { return e.table.Len() }

// Final returns the materialized plan covering all (the full relation
// set), or the abort error if a limit tripped, or an error when the
// enumeration could not connect the graph. It also snapshots the memo
// occupancy counters into Stats.
func (e *Engine) Final(all bitset.Set) (*plan.Node, error) {
	e.Stats.TableEntries = e.table.Len()
	e.Stats.MemoCapacity = e.table.Cap()
	e.Stats.MemoGrows = e.table.Grows()
	e.Stats.ArenaNodes = len(e.nodes)
	if e.abortErr != nil {
		return nil, e.abortErr
	}
	h, ok := e.table.Get(all)
	if !ok {
		return nil, fmt.Errorf("memo: no plan for %v: hypergraph not connected or all plans rejected", all)
	}
	span := e.trace.Start(obs.PhaseMaterialize)
	p := e.materialize(h)
	e.trace.Annotate(span, 0, e.Stats.TableEntries, 0)
	e.trace.End(span)
	return p, nil
}

// Plan materializes the memoed plan for S, or nil. Intended for tests
// and tooling; Final is the production exit.
func (e *Engine) Plan(S bitset.Set) *plan.Node {
	h, ok := e.table.Get(S)
	if !ok {
		return nil
	}
	return e.materialize(h)
}

// materialize converts the arena subtree rooted at h into the pointer-
// based plan.Node form callers consume. The arena itself stays intact
// (and pooled); the returned tree is freshly allocated and safe to keep.
func (e *Engine) materialize(h int32) *plan.Node {
	n := &e.nodes[h]
	if n.left < 0 {
		return plan.Leaf(int(n.rel), n.card)
	}
	l := e.materialize(n.left)
	r := e.materialize(n.right)
	var edges []int
	if n.edgeCnt > 0 {
		edges = make([]int, n.edgeCnt)
		for i := range edges {
			edges[i] = int(e.edges[n.edgeOff+int32(i)])
		}
	}
	p := plan.Join(n.op, l, r, edges, n.card, n.cost)
	p.Phys = n.phys
	return p
}
