package repro

// Planning-time SLOs: budget-aware routing.
//
// WithPlanBudget declares how long a planning call is allowed to take.
// On the SolverAuto path the router then walks a degradation ladder —
// exact enumeration → the iterative-DP tier → greedy — and picks the
// highest rung predicted to finish inside the budget, so an expensive
// topology degrades plan quality instead of blowing the deadline.
//
// Predictions come from three sources, warmest first:
//
//  1. The live shape × algorithm × n latency registry (PlanObs), once a
//     series has sloMinSamples observations — the planner's own recent
//     behavior on this hardware.
//  2. A baseline obs.History installed with SetBaselineHistory —
//     typically the persisted history a server loaded at startup, so a
//     restarted process routes with yesterday's measurements instead of
//     re-learning them.
//  3. Static tables derived from the paper's §4 csg-cmp-pair counts —
//     crude, but deterministic and monotone in n, which is all a cold
//     router needs to order the rungs.
//
// The predictions self-correct: a mis-predicted rung costs one slow (or
// one needlessly greedy) call, whose observed latency lands in the live
// registry and adjusts the next decision.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/shape"
)

// WithPlanBudget sets a planning-time SLO for the call: on the
// SolverAuto path the router degrades to a cheaper algorithm when the
// topology route is predicted to miss d (see Stats.SLORung and
// Stats.SLODegraded); on every path the call's outcome against the
// budget is recorded in Stats.SLOMet and the planner's SLO counters.
// The budget is advisory for routing — it does not cancel a call that
// overruns it; combine with a context deadline for hard cutoffs.
// Zero or negative restores the default (no budget).
func WithPlanBudget(d time.Duration) Option {
	return func(o *options) { o.planBudget = d }
}

// The degradation-ladder rungs, cheapest last. Reported in
// Stats.SLORung so a caller (or the serving tier) can tell how much
// plan quality a budgeted call actually got.
const (
	rungExact  = 0 // full exact enumeration (DPhyp, or any exact WithAlgorithm)
	rungIterDP = 1 // iterative DP: exact subproblems, heuristic composition
	rungGreedy = 2 // GOO: about n² rankings, each an incidence-row walk; no optimality claim
)

// SLORungName returns the stable name of a Stats.SLORung value:
// "exact", "iterdp", or "greedy".
func SLORungName(r int) string {
	switch r {
	case rungExact:
		return "exact"
	case rungIterDP:
		return "iterdp"
	case rungGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("rung(%d)", r)
	}
}

// rungOf maps an algorithm to its ladder rung.
func rungOf(a Algorithm) int {
	switch a {
	case Greedy:
		return rungGreedy
	case IterDP:
		return rungIterDP
	default:
		return rungExact
	}
}

const (
	// sloQuantile is the latency tail the router plans against. A plan
	// budget is an SLO, so the prediction must be a high quantile of
	// the series, not its mean.
	sloQuantile = 0.99
	// sloMinSamples is how many live observations a series needs before
	// its quantile outranks the persisted baseline and static tables.
	sloMinSamples = 16
)

// sloState carries one budgeted call's routing decision from the route
// phase to the point where its outcome is known (recordSLO).
type sloState struct {
	budget    time.Duration
	predicted time.Duration
	degraded  bool
}

// routeBudget walks the degradation ladder below the topology route
// and returns the first rung predicted to finish inside the budget —
// or the bottom rung when nothing fits (greedy is the floor; there is
// no cheaper plan to give). The iterdp rung only exists when the graph
// is larger than one exact subproblem; below that, iterdp degenerates
// to the exact enumeration it would wrap.
func (p *Planner) routeBudget(prof shape.Profile, routed Algorithm, o *options) (final Algorithm, predicted time.Duration, degraded bool) {
	cs := o.clusterSize
	if cs <= 0 {
		cs = DefaultClusterSize
	}
	var rungs [3]Algorithm
	n := 0
	rungs[n] = routed
	n++
	if rungOf(routed) < rungIterDP && prof.Rels > cs {
		rungs[n] = IterDP
		n++
	}
	if rungOf(routed) < rungGreedy {
		rungs[n] = Greedy
		n++
	}
	for i := 0; i < n; i++ {
		predicted = p.predictPlanTime(prof.Class.String(), rungs[i], prof.Rels, cs)
		if predicted <= o.planBudget || i == n-1 {
			return rungs[i], predicted, i > 0
		}
	}
	return routed, predicted, false // unreachable: the loop returns on i == n-1
}

// predictPlanTime estimates the sloQuantile wall time of planning a
// rels-relation graph of the given shape with alg, consulting the live
// registry, then the baseline history, then the static tables.
//
// The live series includes cache hits by design: if a shape's traffic
// is fully cached its observed planning cost is the lookup, and routing
// the next cold call optimistically costs one mis-prediction that the
// registry then absorbs.
func (p *Planner) predictPlanTime(shapeClass string, alg Algorithm, rels, clusterSize int) time.Duration {
	k := obs.Key{Shape: shapeClass, Algorithm: alg.String(), N: obs.NBucket(rels)}
	if d, n, ok := p.planObs.Quantile(k, sloQuantile); ok && n >= sloMinSamples {
		return d
	}
	if h := p.histBase.Load(); h != nil {
		if d, ok := h.Quantile(k, sloQuantile); ok {
			return d
		}
	}
	return staticPlanCost(shapeClass, alg, rels, clusterSize)
}

// SetBaselineHistory installs a persisted planning-cost history as the
// budget router's fallback prediction source for series the live
// registry has not warmed up yet (see WithPlanBudget). The serving
// layer calls this with the history it loads at startup. The history
// is read concurrently from planning calls and must not be mutated
// after installation; nil removes the baseline.
func (p *Planner) SetBaselineHistory(h *obs.History) { p.histBase.Store(h) }

// recordSLO stamps the outcome of one budgeted call onto its stats and
// bumps the session counters. alg is the algorithm that actually
// produced the plan (after any greedy fallback), elapsed the call's
// wall time including cache lookup and routing.
func (p *Planner) recordSLO(st *Stats, s sloState, alg Algorithm, elapsed time.Duration) {
	if s.budget <= 0 {
		return
	}
	st.PlanBudget = s.budget
	st.PredictedCost = s.predicted
	st.SLORung = rungOf(alg)
	st.SLODegraded = s.degraded
	st.SLOMet = elapsed <= s.budget
	if st.SLOMet {
		p.sloMet.Add(1)
	} else {
		p.sloMissed.Add(1)
	}
	if s.degraded {
		p.sloDegraded.Add(1)
	}
}

// Static prediction tables, used only while both measured sources are
// cold. Enumeration effort is modeled as the paper's §4 csg-cmp-pair
// counts for the query's topology class times an amortized per-pair
// cost; the absolute constants are order-of-magnitude calibrations
// from this repository's benchmarks, which is enough to order the
// ladder rungs — the only decision the router makes with them.

// staticPairs returns the number of csg-cmp-pairs a shape-matched exact
// enumeration of an n-relation graph emits (§4.1): exactly for chains
// ((n³-n)/6), cycles (n(n-1)²/2), stars ((n-1)·2^(n-2)) and cliques
// ((3^n - 2^(n+1) + 1)/2), and approximately, by an intermediate
// exponential, for grids and unclassified topologies.
func staticPairs(shapeClass string, n int) float64 {
	f := float64(n)
	if f < 2 {
		return 1
	}
	switch shapeClass {
	case "chain":
		return (f*f*f - f) / 6
	case "cycle":
		return f * (f - 1) * (f - 1) / 2
	case "star":
		return (f - 1) * math.Exp2(f-2)
	case "clique":
		return (math.Pow(3, f) - math.Exp2(f+1) + 1) / 2
	default: // grid, mixed, unclassified: denser than a star, sparser than a clique
		return f * math.Exp2(f)
	}
}

// staticPlanCost turns the pair counts into a wall-time estimate for
// one ladder rung. Estimates are clamped at one hour: beyond that the
// ladder ordering is all that matters, and float exponentials for
// hundred-relation cliques would overflow time.Duration.
func staticPlanCost(shapeClass string, alg Algorithm, n, clusterSize int) time.Duration {
	// perGreedyNs prices GOO per n³: it makes about n² rankings, each an
	// incidence-row walk, and scans the ranked pairs at each merge.
	const (
		baseNs       = 30e3  // fixed per-call overhead: freeze, classify, memo setup
		perPairNs    = 500.0 // amortized cost of one csg-cmp-pair (build + price)
		perGreedyNs  = 4.0   // one n³ unit of a GOO run
		perClusterNs = 2e3   // per-relation clustering overhead in the iterdp tier
	)
	f := float64(n)
	switch alg {
	case Greedy:
		return clampPredict(baseNs + f*f*f*perGreedyNs)
	case IterDP:
		if n <= clusterSize {
			return clampPredict(baseNs + staticPairs(shapeClass, n)*perPairNs)
		}
		// ~two compression rounds of ceil(n/cs) exact subproblems, each
		// at cluster scale on the original topology, plus clustering.
		subs := 2 * float64((n+clusterSize-1)/clusterSize)
		return clampPredict(baseNs + f*perClusterNs + subs*staticPairs(shapeClass, clusterSize)*perPairNs)
	default:
		return clampPredict(baseNs + staticPairs(shapeClass, n)*perPairNs)
	}
}

func clampPredict(ns float64) time.Duration {
	const maxPredictNs = float64(time.Hour)
	if !(ns < maxPredictNs) { // catches +Inf and NaN too
		return time.Hour
	}
	return time.Duration(ns)
}
