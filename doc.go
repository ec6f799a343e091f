// Package repro is a from-scratch reproduction of "Dynamic Programming
// Strikes Back" (Guido Moerkotte and Thomas Neumann, SIGMOD 2008): the
// DPhyp join enumeration algorithm for query hypergraphs, its baselines
// DPsize, DPsub, and DPccp, and the SES/TES conflict analysis that
// reduces the ordering of outer joins, semijoins, antijoins, nestjoins,
// and dependent joins to hypergraph join ordering.
//
// # Quick start
//
// The central type is Planner: a long-lived, concurrency-safe planning
// session constructed once with a cost model, conflict rule, and policy,
// and then shared by any number of goroutines.
//
//	planner := repro.NewPlanner()
//
//	q := repro.NewQuery()
//	o := q.Relation("orders", 1_500_000)
//	c := q.Relation("customer", 150_000)
//	n := q.Relation("nation", 25)
//	q.Join(o, c, 1.0/150_000)
//	q.Join(c, n, 1.0/25)
//	res, err := planner.Plan(ctx, q)
//	// res.Plan is the optimal bushy, cross-product-free join tree.
//
// Complex predicates spanning more than two relations become hyperedges
// (§2.1: R1.a + R2.b + R3.c = R4.d + R5.e + R6.f):
//
//	q.ComplexJoin([]repro.RelID{r1, r2, r3}, []repro.RelID{r4, r5, r6}, 0.05)
//
// Queries with non-inner joins are given as an initial operator tree
// (§5.3); the library computes TESs and derives the conflict-covering
// hyperedges of §5.7 automatically:
//
//	t := repro.NewTreeQuery()
//	f := t.Table("fact", 1_000_000)
//	d1 := t.Table("dim1", 1000)
//	d2 := t.Table("dim2", 500)
//	expr := f.Join(d1, 0.001).AntiJoin(d2, 0.002)
//	res, err := planner.PlanTree(ctx, t, expr)
//
// Raw hypergraphs (PlanGraph), JSON documents (PlanJSON), and query
// batches (PlanBatch) have their own entry points on Planner. A Query's
// §2.1 connectivity repair runs exactly once, on its first planning
// call, so planning the same Query repeatedly is idempotent.
//
// Every entry point runs one pipeline with explicit stages: route
// (resolve SolverAuto), cache (look the call up in
// the plan cache), enumerate (run the solver, with the Greedy fallback
// after a budget trip), account (session counters), fill (store the
// plan in the cache) and finish. A cache hit skips from the cache stage
// to finish, so hits and misses share one epilogue.
//
// # Cancellation and budgets
//
// Every Plan* method takes a context.Context that is polled inside the
// enumeration loops of all algorithms, so a deadline or cancellation
// interrupts even the Θ(3^n) inner loops of DPsub mid-flight and the
// call returns ctx.Err().
//
// WithBudget caps enumeration effort by csg-cmp-pairs (the §2.2
// yardstick) and/or costed plans. When the budget trips, the planner
// adaptively degrades: it discards the partial exact enumeration and
// plans with Greedy (GOO) instead, which needs only about n²
// rankings, each an incidence-row walk, and always produces a valid —
// though not necessarily optimal — plan. The downgrade is recorded in
// Stats.BudgetExhausted and Stats.FallbackGreedy, and Result.Algorithm
// reports Greedy. With WithoutGreedyFallback the trip is instead a hard
// error wrapping ErrBudgetExhausted. Huge or adversarial queries
// therefore degrade gracefully instead of hanging a server.
//
// # Plan cache and scratch reuse
//
// A Planner owns a bounded LRU plan cache keyed by a canonical graph
// fingerprint (relation cardinalities and free sets; every edge's
// hypernodes, selectivity, and operator, in stored order) combined with
// the planning configuration (algorithm, cost model, conflict rule,
// edge mode, budget and fallback policy, IterDP cluster size).
// Repeated traffic over the same query shapes skips enumeration
// entirely. The cache stores each plan packed (plan.Pack: about 40
// bytes per node, where the plan tree takes 112). A hit builds its key
// in a 2 KB stack buffer, so up to an 11-relation clique or a
// 35-relation chain the lookup allocates nothing, and it returns a
// fresh tree unpacked from the cached plan in two allocations whatever
// the plan's size — one slab of nodes, one of edge indices; a plan over
// more than 64 relations adds one per node that covers a relation ≥ 64
// — with the original run's Stats and Stats.CacheHit set. Only a miss
// allocates the key string the cache stores.
//
// Invalidation is structural: there is nothing to invalidate
// explicitly, because any change to the graph or the configuration
// changes the key and simply misses, while stale entries age out of the
// LRU. Two caveats follow from the key definition: relation names,
// edge labels, and payloads are not part of the fingerprint (they do
// not influence plan shape), and runs with observation hooks
// (WithTrace, generate-and-test filters) bypass the cache entirely.
// WithPlanCacheSize sizes the cache; 0 disables it.
//
// Internally, memo engines — open-addressing DP table, plan-node arena,
// and builder scratch — are recycled through a per-planner pool, so
// steady traffic reaches a steady state in which an enumeration run
// performs no table or plan-node allocations at all (see Architecture).
// Stats.ArenaReused reports per run whether recycled storage was used;
// PlannerMetrics.ArenaReuses, PairsEmitted, and MemoPeakEntries
// aggregate the engine's work across the session.
//
// Planner.Metrics exposes the session's cumulative counters — plans
// served, cache hits/misses/evictions, current cache occupancy, budget
// fallbacks, failures, and per-algorithm SolverAuto routing counts — so
// cache effectiveness and routing behavior are observable in
// production, not just in tests.
//
// # Architecture
//
// Join enumeration is split into three layers, mirroring the paper's
// separation of enumeration order from plan construction:
//
//   - Enumerators (internal/core, internal/dpsize, internal/dpsub,
//     internal/dpccp, internal/topdown, internal/goo) are pure: they
//     own nothing but their traversal order. All six run under one
//     contract, dp.Options and dp.Run: Run takes an engine from the
//     pool, applies the hooks and limits, rejects an empty graph, seeds
//     the base relations and materializes the final plan, so a solver
//     only proposes pairs with EmitPair, which reports whether the pair
//     was a csg-cmp-pair, and uses Contains/Step/Aborted for its other
//     tests and cancellation polling. No solver carries its own memo
//     map.
//   - The memo engine (internal/memo) owns storage and accounting: an
//     open-addressing hash table specialized for the relation-set keys
//     (Fibonacci hashing, linear probing, power-of-two growth), a
//     flat plan-node arena addressed by indices instead of pointers
//     (improved entries overwrite their slot in place; nothing is
//     heap-allocated per candidate plan), budget enforcement for the
//     §2.2 effort yardsticks, context-cancellation polling, and the
//     counting and observation hooks. Engines are pooled and reused
//     across planning calls.
//   - The plan builder (internal/dp) is the engine's semantic backend:
//     for every admitted pair it recovers the operator from the
//     connecting hyperedges (§5.4), applies dependency constraints
//     (§5.6) and the optional generate-and-test filter (§5.8),
//     estimates cardinalities, prices candidates under the configured
//     cost model, and finally materializes the winning tree out of the
//     arena into the pointer-based PlanNode form callers consume. A
//     commutative pair has two candidate orientations; under a model
//     that declares cost.Symmetric (see Cost models), an inner pair of
//     a run without a filter or dependent relations is priced with one
//     cost call and one memo write, in the orientation the memo's
//     tie-break keeps, which leaves the memo as pricing both would.
//     The builder prices a pair from the edges both sides touch. An
//     edge applied at the join of disjoint S1 and S2 touches both, so
//     it lies in inc(S1) ∩ inc(S2), where inc(S) is the set of edges
//     touching S; an edge in that intersection is applied iff S1 ∪ S2
//     covers it.
//     The builder keeps each edge's node set, built once per run, and
//     one inc(S) row per memo entry (one bit per edge, in plain words),
//     in arena-handle order: a relation's row comes from the graph, and
//     the row of an entry the builder makes is the union of its two
//     children's rows, so a pair reads both rows by handle. The walk
//     visits inc(S1) ∩ inc(S2) in ascending edge index, so the
//     selectivities of the applied edges multiply in the same order
//     whatever the pair's orientation or solver, and estimates stay
//     bit-identical. The walk is also the pair test: it finds the
//     connecting edges ("∃(u,v) ∈ E : u ⊆ S1 ∧ v ⊆ S2"), and a pair
//     without one, or with a side that has no memo entry, is declined
//     before it is counted. DPhyp, the exact serving route, and DPccp
//     rely on it instead of testing each pair first; DPsize, DPsub and
//     TopDown keep the paper's explicit tests, whose cost Figures 5–7
//     measure.
//     IterDP prices its stitched plan through the same walk
//     (Builder.PriceJoin), so every plan any solver returns is priced
//     by one kernel.
//
// The split is what makes the evaluation's comparisons meaningful: all
// six strategies pay identical per-pair construction costs, so measured
// differences are purely the enumeration overhead the paper studies —
// and it is what lets arenas be reused across served requests.
//
// # Concurrency
//
// An enumeration runs on one goroutine, and a Planner uses its cores
// across requests: concurrent Plan calls, PlanBatch and the service's
// worker pool each plan on their own pooled engine. No solver has an
// intra-query parallel mode. DPsub's was the last; its level-parallel
// clique route took 0.96–1.49× of the time of serial DPccp, then the
// serial clique route, on clique10, the only clique a benchmark
// workload plans, and won only on clique12 (0.81–0.90×; 2 workers on 2
// CPUs, medians of 15 interleaved pairs), so it was deleted and
// WithParallelism does nothing. Equal-cost ties
// are broken order-independently (the lexicographically lowest (left,
// right) relation-set split wins), so the winning plan is a pure
// function of the candidate set: solvers that emit the same pairs in
// different orders return byte-identical plans, which keeps routing
// plan-neutral.
//
// # Benchmarks
//
// cmd/planbench is the only basis for performance claims. It runs four
// seeded workloads against the serving configuration — every call a
// cache hit (lib-hot), every call a miss (lib-cold), large queries
// routed to greedy and IterDP (lib-large), and /plan over HTTP
// (http-mixed) — verifies each plan against a reference optimum, and
// reports end-to-end and per-layer metrics. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes each
// end-to-end metric's regression bound; a claimed gain must hold over
// interleaved runs of both commits on one machine under those rules.
// The testing.B benchmarks here (BenchmarkPlannerSession's cache-hit
// and cache-hit-json among them) serve profiling, not claims.
//
// The checked-in BENCH_PR*.json files are cmd/dpbench paper-
// reproduction artifacts: cold Cout enumeration sweeps over the §4
// shapes (SolverAuto, JSON mode), each recorded once on the hardware
// noted below. They document the reproduction, not the speed of the
// current code. Medians from parallel enumeration are only comparable
// between files recorded on the same core budget; the later files embed
// it themselves (num_cpu, gomaxprocs fields), and for the earlier ones
// it is recorded here:
//
//   - BENCH_PR3.json — n≤12, reps 3, serial; 1-CPU container.
//   - BENCH_PR4.json — n≤12, reps 3, serial; 1-CPU container.
//   - BENCH_PR5.json — n≤14, reps 3, parallel ∈ {1,4}; 1-CPU
//     container, so the 4-worker cells record scheduling overhead
//     (~2%) rather than a speedup.
//   - BENCH_PR7.json — referenced by PR 7's changelog entry but never
//     committed; the gap in the series is real and this note is its
//     record. Use BENCH_PR8.json as the post-widening baseline.
//   - BENCH_PR8.json — n≤100, reps 3, parallel ∈ {1,4}; 2-CPU
//     container.
//   - BENCH_PR9.json — parallel ∈ {1,4} with the parallel spines of
//     this PR; 2-CPU container (num_cpu embedded).
//
// # Invariants
//
// Three contracts underpin the performance and liveness claims above,
// and all three are machine-checked by the repo's own static analysis
// suite (internal/lint, driven by cmd/dplint and gating in CI):
//
//   - Hot paths do not allocate. Functions on the per-pair path —
//     memo Step/EmitPair/Lookup/Improve, the solvers' enumeration
//     loops, the plan builder's BuildPair — are annotated //dp:hotpath;
//     the hotpathalloc analyzer walks their static call closure and
//     rejects slice/map literals, make/new, closure captures, fmt
//     calls, interface boxing, and appends that are not visibly backed
//     by a presized arena. Deliberate slow paths (table growth, abort,
//     trace capture) are annotated //dp:coldpath <reason>, which stops
//     the walk and requires a written justification.
//   - Emission loops poll for cancellation. Every loop in a solver or
//     engine package that emits csg-cmp-pairs must call Step or
//     Aborted each iteration (directly, or through a callee that polls
//     at entry); the ctxpoll analyzer enforces it, which is what makes
//     the "a deadline interrupts even the Θ(3ⁿ) inner loops" promise
//     above a checked property rather than a convention.
//   - Shared counters are atomic. The planner and service metrics are
//     annotated //dp:atomic; the
//     atomicbudget analyzer rejects any access that is not a
//     sync/atomic method call or an &field argument to a sync/atomic
//     function — the race class the GOMAXPROCS matrix in CI hunts
//     dynamically is also excluded statically.
//
// A fourth analyzer, bitsetwidth, quarantines the knowledge of
// bitset.Set's representation inside internal/bitset itself. Since the
// multi-word widening (a single-word fast path plus a []uint64 tail
// beyond 64 relations) the guarded invariant is opacity: no code
// elsewhere may convert Set to or from integers, apply word operators
// or ordering comparisons, use == / != (Set is deliberately not
// comparable — Equal/IsEmpty/Less are the sanctioned forms), or key a
// map by Set (Set.Key() exists for that). That one-package quarantine
// is what let the widening land without touching solver logic.
// Suppressions use //nolint:<analyzer> // <reason> with the reason
// mandatory; per-analyzer counts are pinned in LINT_BASELINE.json.
//
// # Serving
//
// The repro/service package and the cmd/dpserved daemon put a Planner
// behind an HTTP JSON API: POST /plan and POST /batch accept the same
// QueryJSON documents as PlanJSON (plus per-request algorithm, cost
// model, budget, and timeout overrides), GET /healthz reports liveness
// and drain state, and GET /metrics exports the Planner counters plus
// server-side series (latency histogram, queue depth, coalescing) in
// Prometheus text format.
//
// The server adds what a bare Planner cannot provide: admission
// control (a bounded worker pool plus a bounded queue — overload sheds
// with 429 instead of collapsing), per-request deadlines (504, enforced
// through the same context cancellation the solvers poll), coalescing
// of identical in-flight queries keyed by the graph fingerprint (a
// thundering herd of one query shape costs one enumeration), and
// graceful drain on shutdown. A curl-based quickstart:
//
//	go run ./cmd/dpserved -addr :8080 &
//	go run ./cmd/querygen -family star -n 8 | jq '{query: .}' \
//	    | curl -sS -d @- localhost:8080/plan | jq '.cost, .algorithm'
//	curl -sS localhost:8080/metrics | grep planner_
//	kill -TERM %1    # drains in-flight plans, then exits
//
// cmd/loadgen replays querygen-style workloads against a running
// server at a target QPS and reports latency percentiles; its
// -check-metrics flag additionally validates the /metrics exposition
// and the per-shape latency families, the observability half of the
// serving smoke test.
//
// # Observability
//
// The internal/obs package is the planning observability layer; it
// imports only the standard library and sits below the memo engine, so
// every tier threads the same types without cycles. Three surfaces:
//
// Explain traces. WithExplain(t *PlanTrace) attaches a phase/span
// recorder to one planning call: route, cache_lookup, enumerate (or
// one iterdp_round span per compression round plus the final enumerate
// and recost), fallback, and materialize, each with wall time, pairs
// emitted, and memo occupancy. The completed trace is returned as
// Stats.Trace; over HTTP, POST /plan?explain=1 renders it as the
// response's trace field. Tracing observes phase boundaries only:
// unlike WithTrace it does not bypass the plan cache (a traced cache
// hit yields a trace of just the lookup). A Trace is a fixed-capacity
// value and every method is nil-receiver-safe — untraced runs pay one
// pointer test per phase boundary, traced runs allocate nothing, and
// the span hooks are //dp:hotpath-clean.
//
// Dimensional metrics. Every successful Planner call — cache hits
// included — is observed into a shape × algorithm × relation-count-
// bucket latency histogram registry (Planner.PlanObs), exported at
// /metrics as the planner_plan_seconds family. The registry snapshots
// into a persistent planning-cost history (service.Config.HistoryPath;
// dpserved -history-file): loaded at startup as the baseline, merged
// with live counts, saved periodically and at shutdown, so per-shape
// p50/p99 planning cost survives restarts — the input the planned
// budget router will consume.
//
// Debug surfaces. GET /debug/plans is a bounded ring of the slowest
// plans seen (fingerprint, shape, algorithm, duration, and the trace
// when the request was traced or sampled via -trace-sample); GET
// /debug/history serves the merged cost history. dpserved -debug-addr
// opens a second listener with net/http/pprof and GET /debug/runtime;
// -slow-plan logs a warning with phase totals for requests over the
// threshold. Service logging is structured (log/slog) with a request
// id shared between the access and plan records.
//
// # Algorithms
//
// Six enumeration strategies share one memo engine and plan-construction
// backend (see Architecture):
//
//   - DPhyp (the paper's contribution, default, and SolverAuto's one
//     exact route): enumerates exactly the csg-cmp-pairs of the
//     hypergraph.
//   - DPsize (Fig. 1): Selinger-style size-driven DP with hyperedge-
//     capable connectivity tests.
//   - DPsub: subset-driven DP with Vance–Maier subset enumeration.
//   - DPccp (VLDB 2006): the simple-graph special case of DPhyp. It
//     serves WithAlgorithm(DPccp) and the §4 comparisons.
//   - TopDown: naive memoization, the §1 competitor.
//   - Greedy: GOO, the heuristic used beyond exact reach and as the
//     budget fallback.
//
// The exact algorithms produce cost-optimal plans over the same search
// space; they differ only in how much work they waste on failing
// candidate tests — the subject of the paper's evaluation, reproduced
// by cmd/dpbench and bench_test.go. A cross-solver differential suite
// (internal/oracle) locks this equivalence down: every solver under
// every cost model is fuzzed against a brute-force bushy-plan oracle.
//
// # Adaptive solver selection
//
// The paper's central empirical finding is that the best enumerator
// depends on the query's shape. WithAlgorithm(SolverAuto) acts on it:
// before enumeration the planner classifies the hypergraph's topology
// (internal/shape — chain, cycle, star, clique, grid, or mixed, in
// O(relations) on the graph's derived index and invariant under
// relation relabeling) and routes on the class and the relation count:
//
//   - within the per-shape size cutoffs → DPhyp, the one exact route.
//     It is lowest on every hyperedge workload (Figs. 5/6), it alone
//     records the Fig. 3 steps WithTrace asks for, and on a graph
//     without hyperedges it emits the same csg-cmp-pairs as DPccp
//     (§4.4) and computes N(S, X) as DPccp does, from the carried
//     simple-neighbour union alone. It takes 0.97–1.02× of DPccp's
//     time on chains, cycles, stars, cliques and grids of 4–20
//     relations (see routeAuto for the method)
//   - beyond per-shape size cutoffs → Greedy up front (cliques emit
//     Θ(3ⁿ) csg-cmp-pairs, stars Θ(n·2ⁿ); exact enumeration leaves the
//     interactive regime in the mid-teens)
//   - beyond 64 relations → IterDP, the large-query simplification
//     tier (see "Large queries" below)
//
// DPccp, DPsize, DPsub and TopDown serve no route: they stay for the §4
// experiments and for direct WithAlgorithm calls.
//
// The decision is observable: Stats.Shape and Stats.RoutedAlgorithm
// record what the router saw and picked, and Result.Algorithm reports
// what actually ran (Greedy after a budget trip, with the routed
// algorithm still in Stats.RoutedAlgorithm). Routing never changes the
// plan: the exact solvers price the same csg-cmp-pairs through the same
// plan builder under the same order-independent tie-break, so SolverAuto
// trades only time, never quality, until a size cutoff or budget
// degrades to Greedy.
//
// # SLOs and degradation
//
// Topology routing picks the fastest exact enumerator; WithPlanBudget
// adds the other axis the serving tier needs — how long planning is
// allowed to take at all. A budgeted SolverAuto call walks a
// three-rung degradation ladder, dearest plan quality first: full
// exact enumeration (rung "exact"), the iterative-DP tier ("iterdp" —
// exact subproblems, heuristic composition), and GOO ("greedy"), and
// runs the highest rung predicted to finish inside the budget.
// Predictions come from the warmest of three sources: the live
// shape × algorithm × n latency registry once a series has enough
// samples, a baseline obs.History installed via SetBaselineHistory
// (typically the persisted history a server reloads at startup, so a
// restarted process routes on yesterday's measurements), and finally
// static tables derived from the paper's §4 csg-cmp-pair counts — a
// cold router orders the rungs deterministically before it has seen a
// single query. Mis-predictions self-correct: the observed latency of
// every budgeted call lands back in the registry.
//
// The budget is advisory for routing, not a hard cutoff — it chooses
// an algorithm, it does not cancel one that overruns; combine with a
// context deadline for enforcement. Every budgeted call is accounted:
// Stats.SLORung and Stats.SLODegraded say how much quality the call
// got and whether routing moved it down-ladder, Stats.SLOMet records
// the outcome against the budget, and PlannerMetrics (exported at
// /metrics as planner_slo_met_total, planner_slo_missed_total, and
// planner_slo_degraded_total) aggregate per session. Degradation is
// thus always *marked* — a greedy plan produced under pressure is
// distinguishable from a greedy plan the topology earned.
//
// The serving layer builds on this per-call contract (see the
// repro/service docs): an overload degradation ladder tightens
// budgets and forces greedy before shedding, plan-cache warm-start
// snapshots keep restarts from stampeding the solvers, and the
// internal/chaos fault-injection harness (arm-gated, one atomic load
// when disarmed — enforced by the chaosgate analyzer) drives the
// degrade-and-recover cycle in tests. cmd/dpbench -regret closes the
// quality side: it reports greedy cost ÷ exact-optimal cost per
// shape × cost model, so the price of each rung is data rather than
// folklore.
//
// # Large queries
//
// The historical 64-relation ceiling — bitset.Set was one machine word
// — is gone: Set is multi-word (up to bitset.MaxElems = 1024 elements)
// behind the same value-semantics API, with the single-word fast path
// intact, so every solver, the memo table, and the wire format accept
// queries of hundreds of relations. What remains exponential is exact
// enumeration itself, so above 64 relations SolverAuto routes to a
// dedicated tier, IterDP (internal/iterdp): iterative dynamic
// programming by graph simplification. The tier greedily merges the
// cheapest-joined neighboring vertices into clusters of at most
// WithClusterSize relations (default DefaultClusterSize), solves each
// cluster EXACTLY with the existing engine, collapses it to a compound
// vertex carrying its subplan's cardinality, and repeats until the
// compressed graph fits one final exact enumeration; the stitched plan
// is then priced through the plan builder, its joins replayed bottom-up
// against the original graph, so a hyperedge that compression degraded
// is still charged exactly once.
//
// The optimality caveat is inherent: the plan is optimal within every
// exactly-solved subproblem but only heuristically good across cluster
// boundaries — the greedy clustering decides which relations may never
// be interleaved. That is the iterative-DP trade; the alternative at
// 100–1000 relations is a purely greedy plan with no optimal
// substructure at all. The differential suite pins the contract: every
// subproblem the tier hands to the engine matches a brute-force oracle
// optimum, plans are deterministic across uncached and cached runs,
// and Stats.Subproblems/Stats.Rounds expose the tier's work.
// Graphs the tier cannot represent (non-inner operators, dependent
// relations, hyperedge-only connectivity) degrade through the standard
// budget-exhaustion path to the Greedy fallback. The tier is also
// directly selectable with WithAlgorithm(IterDP).
//
// # Cost models
//
// Plans are priced through the pluggable CostModel interface
// (internal/cost.Model): JoinCost receives the operator, the input
// costs and cardinalities, and the estimated output cardinality, and
// returns the total cost of the combined plan. Any implementation that
// is monotone in the input costs (Bellman admissibility) can be passed
// via WithCostModel. Provided models:
//
//   - Cout (default): sum of intermediate-result cardinalities, the
//     standard model of the join-ordering literature.
//   - Cmm: per-operator main-memory weights (builds dearer than probes,
//     semijoins cheap, outer joins pay for padding).
//   - NestedLoop, Hash: classical single-implementation models.
//   - Physical: prices hash join, sort-merge join, and index
//     nested-loop per node and keeps the cheapest; the winning
//     implementation is recorded in PlanNode.Phys, so the optimized
//     tree doubles as a physical plan. Custom models can do the same by
//     implementing cost.PhysicalModel (ChooseJoin must return the cost
//     JoinCost reports).
//
// Cout and NestedLoop declare cost.Symmetric: an inner join costs the
// same, to the bit, with its inputs swapped, so the plan builder prices
// each inner csg-cmp-pair with one JoinCost call instead of one per
// orientation. A custom model declares the same property with a
// SymmetricJoin() method; a model without it is priced in both
// orientations.
package repro
