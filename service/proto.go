package service

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/obs"
)

// PlanRequest is the body of POST /plan. Query uses the repository's
// QueryJSON document format (the same one cmd/querygen emits); the
// remaining fields override the server's planning defaults for this
// request only.
type PlanRequest struct {
	Query *repro.QueryJSON `json:"query"`

	// Algorithm selects the enumeration algorithm (dphyp | dpsize |
	// dpsub | dpccp | topdown | greedy | iterdp | auto). Empty uses the
	// server's planner default.
	Algorithm string `json:"algorithm,omitempty"`
	// CostModel selects the cost model (cout | cmm | nlj | hash |
	// physical). Empty uses the server's planner default.
	CostModel string `json:"cost_model,omitempty"`
	// Budget bounds the exact enumeration effort for this request.
	Budget *BudgetJSON `json:"budget,omitempty"`
	// PlanBudgetMS is the request's planning-time SLO: the budget
	// router degrades to a cheaper algorithm when the preferred one is
	// predicted to miss it (see repro.WithPlanBudget). Advisory for
	// routing — combine with timeout_ms for a hard cutoff. Under
	// overload the server may impose or tighten it (pressure tier 1+).
	PlanBudgetMS int64 `json:"plan_budget_ms,omitempty"`
	// TimeoutMS bounds this request's total time (queueing included).
	// 0 uses the server default; values above Config.MaxTimeout are
	// clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BudgetJSON mirrors repro.Budget.
type BudgetJSON struct {
	MaxCsgCmpPairs int `json:"max_csg_cmp_pairs,omitempty"`
	MaxCostedPlans int `json:"max_costed_plans,omitempty"`
}

// BatchRequest is the body of POST /batch: the shared option fields
// apply to every query in the batch. The batch occupies one worker slot
// and plans its queries sequentially under one deadline, so a batch is
// admission-controlled as a single unit of work.
type BatchRequest struct {
	Queries   []*repro.QueryJSON `json:"queries"`
	Algorithm string             `json:"algorithm,omitempty"`
	CostModel string             `json:"cost_model,omitempty"`
	Budget    *BudgetJSON        `json:"budget,omitempty"`
	// PlanBudgetMS is the per-query planning-time SLO (see
	// PlanRequest.PlanBudgetMS); it applies to each query separately,
	// not to the batch as a whole.
	PlanBudgetMS int64 `json:"plan_budget_ms,omitempty"`
	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
}

// PlanResponse is the body of a successful POST /plan.
type PlanResponse struct {
	Plan        *PlanNodeJSON `json:"plan"`
	Cost        float64       `json:"cost"`
	Cardinality float64       `json:"cardinality"`
	Algorithm   string        `json:"algorithm"`
	Stats       StatsJSON     `json:"stats"`
	// Coalesced marks a response served by waiting on an identical
	// in-flight request instead of enumerating again.
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// PressureTier is the overload-ladder tier this request planned
	// under (1 = tightened plan budget, 2 = greedy-only); absent at
	// tier 0 and when the ladder is disabled. A degraded plan is thus
	// always marked — by this field and by stats.slo_rung/algorithm.
	PressureTier int `json:"pressure_tier,omitempty"`
	// Trace is the explain trace of the planning call, present only when
	// the request asked for one (POST /plan?explain=1). A coalesced
	// response carries the leader's trace — the phases that actually ran.
	Trace *TraceJSON `json:"trace,omitempty"`
}

// TraceJSON is the wire form of an explain trace: the planning call's
// wall time and its phase spans in recording order. Depth-0 spans
// partition the call, so their durations sum to ≈ total_us.
type TraceJSON struct {
	TotalUS float64    `json:"total_us"`
	Dropped int        `json:"dropped,omitempty"`
	Spans   []SpanJSON `json:"spans"`
}

// SpanJSON is one recorded phase. Round is present only on
// iterdp_round spans; the work counters are present only when the
// phase did enumeration work.
type SpanJSON struct {
	Phase       string  `json:"phase"`
	Depth       int     `json:"depth,omitempty"`
	Round       *int    `json:"round,omitempty"`
	StartUS     float64 `json:"start_us"`
	DurUS       float64 `json:"dur_us"`
	Pairs       int64   `json:"pairs,omitempty"`
	MemoEntries int     `json:"memo_entries,omitempty"`
	Subproblems int     `json:"subproblems,omitempty"`
}

// traceJSON renders an explain trace for the wire; nil stays nil.
func traceJSON(t *obs.Trace) *TraceJSON {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := &TraceJSON{
		TotalUS: float64(t.Total.Nanoseconds()) / 1000,
		Dropped: int(t.Dropped),
		Spans:   make([]SpanJSON, len(spans)),
	}
	for i, s := range spans {
		sj := SpanJSON{
			Phase:       s.Phase.String(),
			Depth:       int(s.Depth),
			StartUS:     float64(s.Start.Nanoseconds()) / 1000,
			DurUS:       float64(s.Dur.Nanoseconds()) / 1000,
			Pairs:       s.Pairs,
			MemoEntries: int(s.MemoEntries),
			Subproblems: int(s.Subproblems),
		}
		if s.Round >= 0 {
			round := int(s.Round)
			sj.Round = &round
		}
		out.Spans[i] = sj
	}
	return out
}

// BatchResponse is the body of POST /batch. Results is parallel to the
// request's Queries; each entry carries either a response or an error.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchItem is one per-query outcome inside a BatchResponse.
type BatchItem struct {
	*PlanResponse
	Error string `json:"error,omitempty"`
}

// StatsJSON is the wire form of the enumeration statistics.
type StatsJSON struct {
	CsgCmpPairs     int    `json:"csg_cmp_pairs"`
	CostedPlans     int    `json:"costed_plans"`
	CacheHit        bool   `json:"cache_hit,omitempty"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
	FallbackGreedy  bool   `json:"fallback_greedy,omitempty"`
	Shape           string `json:"shape,omitempty"`
	RoutedAlgorithm string `json:"routed_algorithm,omitempty"`
	// Subproblems and Rounds report the iterative-DP tier's effort
	// (exactly-solved compressed subproblems, compression rounds);
	// absent when the query planned in one exact enumeration.
	Subproblems int `json:"subproblems,omitempty"`
	Rounds      int `json:"rounds,omitempty"`
	// The planning-time SLO block, present only when the request
	// planned under a plan budget (its own or a pressure-imposed one).
	// SLORung names the degradation-ladder rung that produced the plan
	// ("exact" | "iterdp" | "greedy"); SLOMet reports whether the call
	// fit its budget.
	PlanBudgetMS    float64 `json:"plan_budget_ms,omitempty"`
	PredictedCostMS float64 `json:"predicted_cost_ms,omitempty"`
	SLORung         string  `json:"slo_rung,omitempty"`
	SLODegraded     bool    `json:"slo_degraded,omitempty"`
	SLOMet          *bool   `json:"slo_met,omitempty"`
}

// PlanNodeJSON is the wire form of an optimized operator tree. Leaves
// carry Relation/Rel; inner nodes carry Op and both children.
type PlanNodeJSON struct {
	Op       string        `json:"op,omitempty"`
	Relation string        `json:"relation,omitempty"`
	Rel      *int          `json:"rel,omitempty"`
	Phys     string        `json:"phys,omitempty"`
	Card     float64       `json:"card"`
	Cost     float64       `json:"cost"`
	Left     *PlanNodeJSON `json:"left,omitempty"`
	Right    *PlanNodeJSON `json:"right,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// planOptions resolves the request's option fields into repro Options
// plus a canonical key fragment for the coalescer. Unset fields resolve
// to the literal "default" in the key — the server's planner defaults
// are fixed for the process lifetime, so the fragment still identifies
// one planning configuration. The plan budget is part of the key
// because it steers routing: a tier-1 request with a tightened budget
// must not coalesce onto (or feed) the population planning without one.
func planOptions(algorithm, costModel string, budget *BudgetJSON, planBudget time.Duration) ([]repro.Option, string, error) {
	var opts []repro.Option
	algKey, costKey := "default", "default"
	if algorithm != "" {
		a, err := repro.ParseAlgorithm(algorithm)
		if err != nil {
			return nil, "", err
		}
		opts = append(opts, repro.WithAlgorithm(a))
		algKey = a.String()
	}
	if costModel != "" {
		m, err := repro.ParseCostModel(costModel)
		if err != nil {
			return nil, "", err
		}
		opts = append(opts, repro.WithCostModel(m))
		costKey = costModel
	}
	var b repro.Budget
	if budget != nil {
		if budget.MaxCsgCmpPairs < 0 || budget.MaxCostedPlans < 0 {
			return nil, "", fmt.Errorf("service: budget limits must be non-negative")
		}
		b = repro.Budget{
			MaxCsgCmpPairs: budget.MaxCsgCmpPairs,
			MaxCostedPlans: budget.MaxCostedPlans,
		}
		opts = append(opts, repro.WithBudget(b))
	}
	if planBudget < 0 {
		return nil, "", fmt.Errorf("service: plan budget must be non-negative")
	}
	if planBudget > 0 {
		opts = append(opts, repro.WithPlanBudget(planBudget))
	}
	key := fmt.Sprintf("%s/%s/%d:%d/%d", algKey, costKey,
		b.MaxCsgCmpPairs, b.MaxCostedPlans, planBudget.Milliseconds())
	return opts, key, nil
}

// validateQuery guards the nil case, then defers to the library's own
// document validator so the HTTP path can never accept a document the
// CLI path rejects.
func validateQuery(q *repro.QueryJSON) error {
	if q == nil {
		return fmt.Errorf("service: request has no query")
	}
	return q.Validate()
}

// errNonFinitePlan refuses a plan whose estimates overflowed float64:
// JSON cannot encode ±Inf or NaN, so such a plan has no wire form.
var errNonFinitePlan = errors.New("service: plan has a non-finite cost or cardinality")

// finitePlan reports whether every node of the plan tree has a finite
// cost and cardinality.
func finitePlan(n *repro.PlanNode) bool {
	if n == nil {
		return true
	}
	if math.IsInf(n.Cost, 0) || math.IsNaN(n.Cost) || math.IsInf(n.Card, 0) || math.IsNaN(n.Card) {
		return false
	}
	return finitePlan(n.Left) && finitePlan(n.Right)
}

// planNodeJSON renders a plan tree for the wire. names maps relation
// indexes to names; it may be nil (tools planning anonymous graphs).
func planNodeJSON(n *repro.PlanNode, names func(int) string) *PlanNodeJSON {
	if n == nil {
		return nil
	}
	out := &PlanNodeJSON{Card: n.Card, Cost: n.Cost}
	if n.IsLeaf() {
		rel := n.Rel
		out.Rel = &rel
		if names != nil {
			out.Relation = names(rel)
		}
		return out
	}
	out.Op = n.Op.String()
	if n.Phys != repro.PhysNone {
		out.Phys = n.Phys.String()
	}
	out.Left = planNodeJSON(n.Left, names)
	out.Right = planNodeJSON(n.Right, names)
	return out
}

// planResponse renders a planning result for the wire.
func planResponse(res *repro.Result, coalesced bool, elapsedMS float64) *PlanResponse {
	var names func(int) string
	if res.Graph != nil {
		g := res.Graph
		names = func(i int) string {
			if i >= 0 && i < g.NumRels() {
				return g.Relation(i).Name
			}
			return ""
		}
	}
	st := res.Stats
	sj := StatsJSON{
		CsgCmpPairs:     st.CsgCmpPairs,
		CostedPlans:     st.CostedPlans,
		CacheHit:        st.CacheHit,
		BudgetExhausted: st.BudgetExhausted,
		FallbackGreedy:  st.FallbackGreedy,
		Shape:           st.Shape,
		RoutedAlgorithm: st.RoutedAlgorithm,
		Subproblems:     st.Subproblems,
		Rounds:          st.Rounds,
	}
	if st.PlanBudget > 0 {
		sj.PlanBudgetMS = float64(st.PlanBudget.Microseconds()) / 1000
		sj.PredictedCostMS = float64(st.PredictedCost.Microseconds()) / 1000
		sj.SLORung = repro.SLORungName(st.SLORung)
		sj.SLODegraded = st.SLODegraded
		met := st.SLOMet
		sj.SLOMet = &met
	}
	return &PlanResponse{
		Plan:        planNodeJSON(res.Plan, names),
		Cost:        res.Cost(),
		Cardinality: res.Cardinality(),
		Algorithm:   res.Algorithm.String(),
		Stats:       sj,
		Coalesced:   coalesced,
		ElapsedMS:   elapsedMS,
	}
}
