package dp

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
)

// StepKind classifies a traversal event recorded by Trace. The kinds
// correspond to the highlighted states in the paper's Figure 3: the
// enumeration visits singleton start nodes, grows connected subgraphs,
// and constructs connected complements.
type StepKind uint8

// Step kinds.
const (
	StepStartNode StepKind = iota // Solve processes a singleton {v}
	StepCsg                       // EnumerateCsgRec found a connected subgraph
	StepCmp                       // a csg-cmp-pair (S1,S2) is emitted
)

func (k StepKind) String() string {
	switch k {
	case StepStartNode:
		return "start"
	case StepCsg:
		return "csg"
	case StepCmp:
		return "csg-cmp"
	}
	return "?"
}

// Step is one recorded traversal event.
type Step struct {
	Kind   StepKind
	S1, S2 bitset.Set
}

// Trace records the traversal of a DPhyp run, mirroring the step-by-step
// walkthrough of Figure 3. A nil *Trace is valid and records nothing, so
// the hot path stays branch-cheap.
type Trace struct {
	Steps []Step
}

// reset empties the trace at the start of a run (see Run).
func (t *Trace) reset() {
	if t != nil {
		t.Steps = t.Steps[:0]
	}
}

// Add records one traversal event.
//
//dp:coldpath trace capture is a debugging mode, never enabled on production runs
func (t *Trace) Add(kind StepKind, s1, s2 bitset.Set) {
	if t == nil {
		return
	}
	t.Steps = append(t.Steps, Step{Kind: kind, S1: s1, S2: s2})
}

// Pairs returns only the csg-cmp-pair emission events.
func (t *Trace) Pairs() []Step {
	var out []Step
	for _, s := range t.Steps {
		if s.Kind == StepCmp {
			out = append(out, s)
		}
	}
	return out
}

// String renders the trace, one numbered step per line, in the spirit of
// Figure 3's legend (connected subgraph / connected complement).
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for i, s := range t.Steps {
		switch s.Kind {
		case StepStartNode:
			fmt.Fprintf(&b, "%3d  start        %v\n", i+1, s.S1)
		case StepCsg:
			fmt.Fprintf(&b, "%3d  csg          %v\n", i+1, s.S1)
		case StepCmp:
			fmt.Fprintf(&b, "%3d  csg-cmp-pair %v | %v\n", i+1, s.S1, s.S2)
		}
	}
	return b.String()
}
