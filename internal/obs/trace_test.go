package obs

import (
	"testing"
	"time"
)

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Begin()
	h := tr.Start(PhaseEnumerate)
	if h != -1 {
		t.Fatalf("nil trace Start = %d, want -1", h)
	}
	tr.End(h)
	tr.Annotate(h, 1, 2, 4)
	tr.SetRound(h, 1)
	tr.Finish()
	if tr.Len() != 0 || tr.Spans() != nil || tr.PhaseTotal(PhaseEnumerate) != 0 {
		t.Fatal("nil trace should report empty")
	}
}

func TestTraceSpansAndNesting(t *testing.T) {
	tr := NewTrace()
	outer := tr.Start(PhaseEnumerate)
	inner := tr.Start(PhaseMaterialize)
	time.Sleep(time.Millisecond)
	tr.End(inner)
	tr.End(outer)
	next := tr.Start(PhaseRecost)
	tr.End(next)
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Phase != PhaseEnumerate || spans[0].Depth != 0 {
		t.Fatalf("outer span = %+v, want enumerate at depth 0", spans[0])
	}
	if spans[1].Phase != PhaseMaterialize || spans[1].Depth != 1 {
		t.Fatalf("inner span = %+v, want materialize at depth 1", spans[1])
	}
	if spans[2].Depth != 0 {
		t.Fatalf("span after closed nesting at depth %d, want 0", spans[2].Depth)
	}
	if spans[0].Dur <= 0 || spans[1].Dur <= 0 {
		t.Fatal("span durations must be positive")
	}
	if spans[1].Dur > spans[0].Dur {
		t.Fatalf("nested span (%v) longer than its parent (%v)", spans[1].Dur, spans[0].Dur)
	}
	if tr.Total < spans[0].Dur {
		t.Fatalf("Total %v < outer span %v", tr.Total, spans[0].Dur)
	}
	if spans[0].Round != -1 {
		t.Fatalf("default Round = %d, want -1", spans[0].Round)
	}
}

func TestTraceAnnotateAndRound(t *testing.T) {
	tr := NewTrace()
	h := tr.Start(PhaseCluster)
	tr.Annotate(h, 1234, 56, 7)
	tr.SetRound(h, 2)
	tr.End(h)
	s := tr.Spans()[0]
	if s.Pairs != 1234 || s.MemoEntries != 56 || s.Subproblems != 7 || s.Round != 2 {
		t.Fatalf("annotated span = %+v", s)
	}
}

func TestTraceOverflowDrops(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < MaxSpans+10; i++ {
		h := tr.Start(PhaseOther)
		tr.End(h)
	}
	if tr.Len() != MaxSpans {
		t.Fatalf("Len = %d, want %d", tr.Len(), MaxSpans)
	}
	if tr.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", tr.Dropped)
	}
}

func TestTraceBeginResets(t *testing.T) {
	tr := NewTrace()
	tr.End(tr.Start(PhaseRoute))
	tr.Finish()
	tr.Begin()
	if tr.Len() != 0 || tr.Total != 0 || tr.Dropped != 0 {
		t.Fatalf("Begin did not reset: len=%d total=%v dropped=%d", tr.Len(), tr.Total, tr.Dropped)
	}
}

func TestPhaseNames(t *testing.T) {
	if PhaseCluster.String() != "iterdp_round" {
		t.Fatalf("PhaseCluster = %q", PhaseCluster.String())
	}
	if Phase(200).String() != "other" {
		t.Fatalf("unknown phase = %q", Phase(200).String())
	}
}

func TestPhaseTotal(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < 3; i++ {
		h := tr.Start(PhaseCluster)
		time.Sleep(200 * time.Microsecond)
		tr.End(h)
	}
	if got := tr.PhaseTotal(PhaseCluster); got < 600*time.Microsecond {
		t.Fatalf("PhaseTotal(cluster) = %v, want >= 600µs", got)
	}
	if tr.PhaseTotal(PhaseRecost) != 0 {
		t.Fatal("PhaseTotal of unrecorded phase must be 0")
	}
}
