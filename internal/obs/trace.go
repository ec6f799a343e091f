// Package obs is the planning observability layer: explain traces
// (phase/span recording of one planning call), dimensional planning-
// latency metrics (shape × algorithm × relation-count-bucket), a
// persistent planning-cost history, and a bounded ring of the slowest
// recent plans.
//
// The package sits below everything else in the repository — it imports
// only the standard library — so the memo engine, the iterative-DP
// tier, the Planner, and the serving layer can all thread the same
// types through without dependency cycles.
//
// Design constraints, in order:
//
//   - Zero cost when off. Every Trace method is nil-receiver-safe, so
//     untraced runs pay one pointer test per phase boundary and nothing
//     else. Tracing is opt-in per request (explain=1), or sampled.
//   - Alloc-free when on. A Trace is a fixed-capacity value: spans live
//     in a pre-sized array, labels are Phase constants, and recording a
//     span writes into that storage — no interface boxing, no fmt, no
//     append beyond capacity. Hot-path code may therefore call the
//     span hooks under the //dp:hotpath discipline (the hotpathalloc
//     analyzer has a golden case for exactly this idiom).
//   - Phase boundaries only. Spans mark planner phases (cache lookup,
//     routing, iterdp compression rounds, enumeration, materialize),
//     never per-pair events; a trace of the largest supported query is
//     a few dozen spans.
package obs

import "time"

// Phase identifies what a span measured. The zero value is PhaseOther
// so a forgotten assignment is visibly unlabeled rather than silently
// claiming to be a cache lookup.
type Phase uint8

// The planning phases, in rough pipeline order.
const (
	PhaseOther       Phase = iota
	PhaseRoute             // topology classification + SolverAuto routing
	PhaseCacheLookup       // graph fingerprint + plan-cache probe
	PhaseEnumerate         // one exact/greedy enumeration (or iterdp's final pass)
	PhaseFallback          // the greedy second pass after a budget trip
	PhaseCluster           // one iterdp compression round (cluster, sub-solve, compress)
	PhaseRecost            // iterdp pricing its stitched plan against the original graph
	PhaseMaterialize       // arena → *plan.Node materialization of the winner
)

var phaseNames = [...]string{
	PhaseOther:       "other",
	PhaseRoute:       "route",
	PhaseCacheLookup: "cache_lookup",
	PhaseEnumerate:   "enumerate",
	PhaseFallback:    "fallback",
	PhaseCluster:     "iterdp_round",
	PhaseRecost:      "recost",
	PhaseMaterialize: "materialize",
}

// String returns the stable wire name of the phase (e.g. "iterdp_round").
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "other"
}

// MaxSpans bounds the spans one trace can hold. The deepest real trace
// is an iterdp run over ~1000 relations: a handful of compression
// rounds plus the fixed planner phases — far below this cap. When the
// cap is hit further spans are counted in Dropped instead of recorded,
// so the trace degrades to a summary rather than allocating.
const MaxSpans = 64

// maxDepth bounds span nesting (planner phase → solver-internal span).
const maxDepth = 8

// Span is one recorded phase: wall-clock extent plus the work counters
// the phase's owner filled in. Start is the offset from the trace
// begin, so spans are self-contained without absolute timestamps.
type Span struct {
	Phase Phase
	// Depth is the nesting level at which the span was opened: 0 for
	// planner-level phases, 1 for spans opened inside another phase
	// (e.g. materialize inside enumerate). Depth-0 spans partition the
	// planning call, so their durations sum to ≈ Total.
	Depth uint8
	// Round is the iterdp compression-round index for PhaseCluster
	// spans, and -1 elsewhere.
	Round int16
	Start time.Duration // offset from the trace begin
	Dur   time.Duration
	// Pairs counts csg-cmp-pairs emitted during the phase; MemoEntries
	// and Subproblems likewise snapshot the phase's memo occupancy and
	// (for iterdp rounds) exactly-solved subproblem count. All three
	// are zero when the phase does no enumeration work.
	Pairs       int64
	MemoEntries int32
	Subproblems int32
}

// Trace records the phases of one planning call. Construct with
// NewTrace (or embed a zero Trace and call Begin); a nil *Trace is a
// valid no-op recorder, so call sites need no conditionals.
//
// A Trace is not safe for concurrent use — it belongs to exactly one
// planning call.
type Trace struct {
	// Total is the wall time from Begin to Finish.
	Total time.Duration
	// Dropped counts spans discarded after the MaxSpans cap was hit.
	Dropped int32

	begin time.Time
	n     int32
	depth int8
	open  [maxDepth]int32
	spans [MaxSpans]Span
}

// NewTrace returns a started trace (Begin already called).
func NewTrace() *Trace {
	t := &Trace{}
	t.Begin()
	return t
}

// Begin (re)starts the trace clock and clears previously recorded
// spans. Safe on nil.
func (t *Trace) Begin() {
	if t == nil {
		return
	}
	t.begin = time.Now()
	t.Total = 0
	t.Dropped = 0
	t.n = 0
	t.depth = 0
}

// Start opens a span for phase p and returns its handle. Safe on nil
// (returns a handle End ignores). Spans opened while another is open
// nest: their Depth is one deeper, and depth-0 spans remain a
// partition of the call.
//
//dp:hotpath
func (t *Trace) Start(p Phase) int32 {
	if t == nil {
		return -1
	}
	if t.n >= MaxSpans || t.depth >= maxDepth {
		t.Dropped++
		return -1
	}
	h := t.n
	t.n++
	t.spans[h] = Span{
		Phase: p,
		Depth: uint8(t.depth),
		Round: -1,
		Start: time.Since(t.begin),
	}
	t.open[t.depth] = h
	t.depth++
	return h
}

// End closes the span h opened by Start. Safe on nil receivers and
// invalid handles.
//
//dp:hotpath
func (t *Trace) End(h int32) {
	if t == nil || h < 0 || h >= t.n {
		return
	}
	s := &t.spans[h]
	s.Dur = time.Since(t.begin) - s.Start
	if t.depth > 0 && t.open[t.depth-1] == h {
		t.depth--
	}
}

// Annotate fills the work counters of the still-addressable span h.
// Safe on nil receivers and invalid handles.
//
//dp:hotpath
func (t *Trace) Annotate(h int32, pairs int64, memoEntries, subproblems int) {
	if t == nil || h < 0 || h >= t.n {
		return
	}
	s := &t.spans[h]
	s.Pairs = pairs
	s.MemoEntries = int32(memoEntries)
	s.Subproblems = int32(subproblems)
}

// SetRound tags span h as iterdp compression round r.
func (t *Trace) SetRound(h int32, r int) {
	if t == nil || h < 0 || h >= t.n {
		return
	}
	t.spans[h].Round = int16(r)
}

// Finish stops the trace clock. Further spans may still be recorded
// (Finish is idempotent and only snapshots Total).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Total = time.Since(t.begin)
}

// Len returns the number of recorded spans. Safe on nil.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Spans returns the recorded spans (a view, not a copy — callers must
// not retain it past the trace's reuse). Safe on nil.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans[:t.n]
}

// PhaseTotal sums the durations of all spans with the given phase.
func (t *Trace) PhaseTotal(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for i := int32(0); i < t.n; i++ {
		if t.spans[i].Phase == p {
			sum += t.spans[i].Dur
		}
	}
	return sum
}
