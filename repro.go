package repro

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/dpccp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/iterdp"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/optree"
	"repro/internal/plan"
	"repro/internal/topdown"
)

// ErrBudgetExhausted is the sentinel wrapped by planning errors when an
// exact enumeration stopped at its Budget and no Greedy fallback was
// available (the fallback was disabled, the algorithm already was
// Greedy, or the greedy pass itself failed). Test with errors.Is.
var ErrBudgetExhausted = dp.ErrBudgetExhausted

// Re-exported building blocks. The internal packages hold the
// implementations; these aliases make the public API self-contained.
type (
	// PlanNode is a node of an optimized operator tree.
	PlanNode = plan.Node
	// Stats reports enumeration effort (csg-cmp-pairs, costed plans,
	// rejected candidates, DP table size).
	Stats = dp.Stats
	// CostModel prices join nodes; see Cout, NestedLoop, Hash.
	CostModel = cost.Model
	// Op is a binary algebra operator.
	Op = algebra.Op
	// Graph is a query hypergraph.
	Graph = hypergraph.Graph
	// Trace records DPhyp traversal steps (Fig. 3 style).
	Trace = core.Trace
	// PlanTrace records the phases of one planning call (routing, cache
	// lookup, iterdp compression rounds, enumeration, materialization)
	// with per-phase wall time and work counters. Attach one with
	// WithExplain; the completed trace is returned in Stats.Trace.
	PlanTrace = obs.Trace
	// PlanSpan is one recorded phase of a PlanTrace.
	PlanSpan = obs.Span
	// PlanPhase labels what a PlanSpan measured.
	PlanPhase = obs.Phase
)

// Operator constants for tree queries and plan inspection.
const (
	OpJoin      = algebra.Join
	OpLeftOuter = algebra.LeftOuter
	OpFullOuter = algebra.FullOuter
	OpAntiJoin  = algebra.AntiJoin
	OpSemiJoin  = algebra.SemiJoin
	OpNestJoin  = algebra.NestJoin
)

// Cost models.
var (
	// Cout sums intermediate result cardinalities (default).
	Cout CostModel = cost.Cout{}
	// NestedLoop charges the cross product of the inputs per join.
	NestedLoop CostModel = cost.NestedLoop{}
	// Hash models a main-memory hash join.
	Hash CostModel = cost.Hash{}
	// Cmm prices joins with per-operator main-memory weights (an
	// adaptation of the C_mm model).
	Cmm CostModel = cost.Cmm{}
	// Physical additionally chooses hash join, sort-merge join, or
	// index nested-loop per node; the choice is recorded in
	// PlanNode.Phys.
	Physical CostModel = cost.Physical{}
)

// ParseCostModel maps a command-line name to a cost model. Recognized
// names: cout, cmm, nlj, hash, physical.
func ParseCostModel(s string) (CostModel, error) {
	switch s {
	case "cout":
		return Cout, nil
	case "cmm":
		return Cmm, nil
	case "nlj":
		return NestedLoop, nil
	case "hash":
		return Hash, nil
	case "physical":
		return Physical, nil
	}
	return nil, fmt.Errorf("repro: unknown cost model %q (have cout, cmm, nlj, hash, physical)", s)
}

// PhysicalOp identifies the physical join implementation the Physical
// cost model chose for a plan node (see PlanNode.Phys).
type PhysicalOp = algebra.PhysOp

// The physical join implementations.
const (
	PhysNone      = algebra.PhysNone
	PhysHashJoin  = algebra.PhysHashJoin
	PhysSortMerge = algebra.PhysSortMerge
	PhysIndexNLJ  = algebra.PhysIndexNLJ
)

// Algorithm selects the enumeration strategy.
type Algorithm int

// The implemented join enumeration algorithms.
const (
	DPhyp Algorithm = iota
	DPsize
	DPsub
	DPccp
	TopDown
	// Greedy is GOO (greedy operator ordering): a heuristic for queries
	// beyond the reach of exact dynamic programming. Plans are valid but
	// not necessarily optimal.
	Greedy
	// IterDP is the large-query tier: iterative dynamic programming by
	// graph simplification. Adjacent relations are greedily clustered
	// into subproblems of at most WithClusterSize relations, each
	// subproblem is solved EXACTLY by the enumeration engine, clusters
	// collapse to compound vertices, and the compression repeats until
	// one final exact enumeration covers the graph. Optimal within each
	// subproblem, heuristic across cluster boundaries; this is how
	// 100–1000-relation queries plan within an interactive budget.
	// Non-inner operators and dependent relations degrade to Greedy.
	IterDP
	// SolverAuto routes each query to a concrete algorithm based on its
	// topology (chain, cycle, star, clique, grid, mixed — see
	// internal/shape) and the paper's §4 crossover data. The routed
	// algorithm and the shape class are recorded in
	// Stats.RoutedAlgorithm and Stats.Shape, and Result.Algorithm
	// reports what actually ran. Queries beyond the exact cutoffs
	// degrade directly to Greedy.
	SolverAuto
)

var algorithmNames = map[Algorithm]string{
	DPhyp: "dphyp", DPsize: "dpsize", DPsub: "dpsub", DPccp: "dpccp",
	TopDown: "topdown", Greedy: "greedy", IterDP: "iterdp", SolverAuto: "auto",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm is the inverse of Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, n := range algorithmNames {
		if n == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown algorithm %q (have dphyp, dpsize, dpsub, dpccp, topdown, greedy, iterdp, auto)", s)
}

// Budget bounds the effort of one exact enumeration. The zero value
// imposes no bounds. When a limit trips, a Planner with the default
// policy falls back to Greedy (GOO) and records the downgrade in Stats;
// without the fallback the planning call fails with an error wrapping
// ErrBudgetExhausted.
type Budget struct {
	// MaxCsgCmpPairs caps the number of csg-cmp-pairs emitted — the
	// paper's §2.2 yardstick for enumeration effort. 0 = unlimited.
	MaxCsgCmpPairs int
	// MaxCostedPlans caps the number of candidate plans priced.
	// 0 = unlimited.
	MaxCostedPlans int
}

// Option configures a Planner or a single planning call.
type Option func(*options)

type options struct {
	alg        Algorithm
	model      CostModel
	rule       optree.ConflictRule
	genAndTest bool
	noSimplify bool
	trace      *Trace
	explain    *obs.Trace
	onEmit     func(s1, s2 bitset.Set)

	// Session knobs (see Planner).
	ctx         context.Context
	budget      Budget
	cacheSize   int
	noFallback  bool
	pool        *memo.Pool
	parallelism int           // 0 = GOMAXPROCS, 1 = serial
	clusterSize int           // IterDP subproblem budget; 0 = DefaultClusterSize
	planBudget  time.Duration // planning-time SLO for budget routing; 0 = none
}

func defaultOptions() options {
	return options{
		alg:       DPhyp,
		model:     cost.Default(),
		rule:      optree.Conservative,
		cacheSize: DefaultPlanCacheSize,
	}
}

// WithAlgorithm selects the enumeration algorithm (default DPhyp).
func WithAlgorithm(a Algorithm) Option { return func(o *options) { o.alg = a } }

// WithCostModel selects the cost model (default Cout).
func WithCostModel(m CostModel) Option { return func(o *options) { o.model = m } }

// WithPublishedConflictRule uses the literal §5.5 LC/RC gates instead of
// the conservative default; see internal/optree for the trade-off.
func WithPublishedConflictRule() Option {
	return func(o *options) { o.rule = optree.Published }
}

// WithGenerateAndTest switches tree queries to the §5.8 generate-and-test
// paradigm: hyperedges from SESs plus a late TES filter in EmitCsgCmp.
// Slower by design; exposed for the Fig. 8a reproduction.
func WithGenerateAndTest() Option { return func(o *options) { o.genAndTest = true } }

// WithoutSimplification skips the §5.2 outer-join simplification pass on
// tree queries. The conflict rules assume simplified inputs, so only use
// this when the tree is known to be simplified already.
func WithoutSimplification() Option { return func(o *options) { o.noSimplify = true } }

// WithTrace records the enumeration steps into t.
func WithTrace(t *Trace) Option { return func(o *options) { o.trace = t } }

// WithExplain records a phase/span trace of the planning call into t
// (route, cache lookup, iterdp rounds, enumeration, materialize — with
// per-phase wall time, pairs emitted, memo occupancy, and worker
// counts). Unlike WithTrace it observes only phase boundaries, so it
// neither forces the serial engine nor bypasses the plan cache: a
// traced call served from the cache returns a trace of just the route
// and cache-lookup phases. The completed trace is available as
// Stats.Trace.
func WithExplain(t *PlanTrace) Option { return func(o *options) { o.explain = t } }

// WithBudget bounds exact enumeration effort (see Budget). On a Planner
// it applies to every plan; on a single call it overrides the planner's
// default for that call.
func WithBudget(b Budget) Option { return func(o *options) { o.budget = b } }

// WithPlanCacheSize sets the capacity (in entries) of a Planner's
// fingerprint-keyed plan cache; n <= 0 disables caching. The default is
// DefaultPlanCacheSize. Only meaningful when passed to NewPlanner.
func WithPlanCacheSize(n int) Option { return func(o *options) { o.cacheSize = n } }

// WithoutGreedyFallback makes budget exhaustion a hard error (wrapping
// ErrBudgetExhausted) instead of degrading to a Greedy plan.
func WithoutGreedyFallback() Option { return func(o *options) { o.noFallback = true } }

// WithParallelism bounds the workers one enumeration may use. The
// default (0) is runtime.GOMAXPROCS; 1 pins every run to the serial
// engine. Only DPhyp and DPsub enumerate in parallel, the two modes
// measured faster than serial on the shapes SolverAuto routes to them
// (see the package documentation); SolverAuto additionally sends
// cliques to DPsub instead of TopDown when more than one worker is
// allowed. Every other solver plans serially at any setting.
// Parallelism never changes the plan: worker results merge under an
// order-independent tie-break, so plans are byte-identical across
// worker counts (and to serial), which is also why the plan cache
// ignores this knob. Small queries (fewer than ParallelMinRels
// relations), traced or observed runs, and generate-and-test filters
// always plan serially — fork/join overhead would dominate or ordering
// guarantees would be lost.
func WithParallelism(n int) Option { return func(o *options) { o.parallelism = n } }

// DefaultClusterSize is the IterDP subproblem budget unless overridden
// with WithClusterSize: 12-relation subgraphs exact-solve in well under
// a millisecond on every topology.
const DefaultClusterSize = iterdp.DefaultClusterSize

// WithClusterSize sets the largest relation count the IterDP tier hands
// to one exact sub-enumeration (default DefaultClusterSize, capped at
// iterdp.MaxClusterSize). Larger clusters buy plan quality with
// exponentially more enumeration time per subproblem.
func WithClusterSize(n int) Option { return func(o *options) { o.clusterSize = n } }

// ParallelMinRels is the size crossover below which enumerations stay
// serial regardless of WithParallelism: under ~10 relations a full
// exact enumeration costs tens of microseconds, where goroutine
// fork/join and the level barriers would be pure regression.
const ParallelMinRels = 10

// workers resolves the effective worker count for one enumeration over
// g. Observation hooks need the serial emission order; filters carry
// per-analysis state the worker builders must not share.
func (o *options) workers(g *Graph, filter dp.Filter) int {
	w := o.parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 64 {
		w = 64
	}
	if w > 1 && (filter != nil || o.trace != nil || o.onEmit != nil || g.NumRels() < ParallelMinRels) {
		return 1
	}
	return w
}

// Result is the outcome of an optimization.
type Result struct {
	// Plan is the optimal operator tree.
	Plan *PlanNode
	// Stats reports the enumeration effort.
	Stats Stats
	// Graph is the hypergraph the enumeration ran on (for tree queries,
	// the TES- or SES-derived graph).
	Graph *Graph
	// Algorithm is the algorithm that produced Plan. It differs from the
	// requested one when the Planner downgraded to Greedy after a budget
	// trip (Stats.FallbackGreedy is then set).
	Algorithm Algorithm
}

// Cost returns the plan's total cost under the optimizing model.
func (r *Result) Cost() float64 { return r.Plan.Cost }

// Cardinality returns the estimated result size.
func (r *Result) Cardinality() float64 { return r.Plan.Card }

// runSolver dispatches a hypergraph to the selected algorithm. It
// returns the enumeration statistics even on error so that the Planner
// can account for the work an aborted exact pass performed before its
// Greedy fallback.
func runSolver(g *Graph, o options, filter dp.Filter) (*PlanNode, Stats, error) {
	// Fault injection: one visit per solver dispatch. An injected error
	// fails the enumeration before it starts (wrap ErrBudgetExhausted to
	// exercise the greedy fallback); a delay models a slow solver.
	if chaos.Armed() {
		if err := chaos.Inject(chaos.SiteEnumerate); err != nil {
			return nil, Stats{}, err
		}
	}
	limits := dp.Limits{
		Ctx:            o.ctx,
		MaxCsgCmpPairs: o.budget.MaxCsgCmpPairs,
		MaxCostedPlans: o.budget.MaxCostedPlans,
	}
	switch o.alg {
	case DPhyp:
		return core.Solve(g, core.Options{Model: o.model, Filter: filter, Trace: o.trace, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool, Parallelism: o.workers(g, filter)})
	case DPsize:
		return dpsize.Solve(g, dpsize.Options{Model: o.model, Filter: filter, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool})
	case DPsub:
		return dpsub.Solve(g, dpsub.Options{Model: o.model, Filter: filter, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool, Parallelism: o.workers(g, filter)})
	case DPccp:
		return dpccp.Solve(g, dpccp.Options{Model: o.model, Filter: filter, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool})
	case TopDown:
		return topdown.Solve(g, topdown.Options{Model: o.model, Filter: filter, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool})
	case Greedy:
		return goo.Solve(g, goo.Options{Model: o.model, Filter: filter, Explain: o.explain, OnEmit: o.onEmit, Limits: limits, Pool: o.pool})
	case IterDP:
		return runIterDP(g, o, limits)
	case SolverAuto:
		// The Planner resolves SolverAuto to a concrete algorithm before
		// dispatching; reaching this point is a programming error.
		return nil, Stats{}, fmt.Errorf("repro: SolverAuto must be resolved by the planner before dispatch")
	default:
		return nil, Stats{}, fmt.Errorf("repro: unknown algorithm %v", o.alg)
	}
}

// OptimizeGraph runs the selected algorithm directly on a hypergraph
// through the default Planner (see DefaultPlanner). Most callers use
// Query.Optimize or TreeQuery.Optimize instead; this entry point serves
// tools and benchmarks that build graphs through the internal workload
// generators.
func OptimizeGraph(g *Graph, opts ...Option) (*Result, error) {
	return DefaultPlanner().PlanGraph(context.Background(), g, opts...)
}
