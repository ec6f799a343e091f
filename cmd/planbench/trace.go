package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/service"
)

// span is one record of the span file: a layer boundary of one request,
// timed from the benchmark's side or read from the request's explain
// trace. Start and End are offsets from the start of the window; Parent
// is the ID of the enclosing span of the same request, -1 at the root.
type span struct {
	Workload string `json:"workload"`
	Req      int64  `json:"req"`
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanCap is how many spans a workload keeps in memory for the span
// file.
const spanCap = 1 << 14

// spanBuf is a preallocated span store owned by one caller. A request
// whose spans no longer fit is counted in dropped instead of recorded,
// so a long window costs fixed memory and no allocation.
type spanBuf struct {
	s       []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{s: make([]span, 0, capacity)} }

// request starts recording request req if n more spans fit; the
// returned recorder is nil (and records nothing) otherwise.
func (b *spanBuf) request(workload string, req int64, n int) *spanRec {
	if len(b.s)+n > cap(b.s) {
		b.dropped++
		return nil
	}
	return &spanRec{b: b, workload: workload, req: req}
}

type spanRec struct {
	b        *spanBuf
	workload string
	req      int64
	next     int32
}

// add records one span and returns its ID. Safe on a nil recorder.
func (r *spanRec) add(name string, parent int32, start, end time.Duration) int32 {
	if r == nil {
		return -1
	}
	id := r.next
	r.next++
	r.b.s = append(r.b.s, span{Workload: r.workload, Req: r.req, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	return id
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		for i := range b.s {
			if err := enc.Encode(&b.s[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// xspan is one explain span, from obs.Trace or the wire.
type xspan struct {
	phase      string
	depth      int
	start, dur time.Duration
	pairs      int64
}

// callTrace is what the explain trace and stats of one planning call
// tell the benchmark.
type callTrace struct {
	spans  []xspan
	total  time.Duration
	routed string // algorithm the router picked
	miss   bool   // the call enumerated, so its stats are its own
	rounds int
	subs   int
	grows  int // -1: not reported
}

// libTrace reads a library call's trace and stats, appending the spans
// to buf.
func libTrace(t *obs.Trace, st *repro.Stats, buf []xspan) callTrace {
	for _, s := range t.Spans() {
		buf = append(buf, xspan{phase: s.Phase.String(), depth: int(s.Depth), start: s.Start, dur: s.Dur, pairs: s.Pairs})
	}
	return callTrace{spans: buf, total: t.Total, routed: st.RoutedAlgorithm, miss: !st.CacheHit,
		rounds: st.Rounds, subs: st.Subproblems, grows: st.MemoGrows}
}

// wireTrace reads a /plan response's trace and stats; the wire carries
// no memo growth count.
func wireTrace(r *service.PlanResponse) callTrace {
	ct := callTrace{routed: r.Stats.RoutedAlgorithm, miss: !r.Stats.CacheHit && !r.Coalesced,
		rounds: r.Stats.Rounds, subs: r.Stats.Subproblems, grows: -1}
	if r.Trace == nil {
		return ct
	}
	us := func(v float64) time.Duration { return time.Duration(v * 1000) }
	ct.total = us(r.Trace.TotalUS)
	for _, s := range r.Trace.Spans {
		ct.spans = append(ct.spans, xspan{phase: s.Phase, depth: s.Depth, start: us(s.StartUS), dur: us(s.DurUS), pairs: s.Pairs})
	}
	return ct
}

// The layers self time is attributed to, in report order. "client" is
// the generator's FIFO wait and the HTTP transport.
var layers = []string{"client", "service", "repro", "hypergraph", "shape", "optree", "enumerators", "memo", "iterdp"}

// probes are the standalone timings of the layers the planner calls
// without an explain span of their own, measured on a second copy of
// the document.
type probes struct {
	freeze, fingerprint, classify, analyze time.Duration

	marks [4]probeMark // the timed calls, for the span file
	n     int
}

type probeMark struct {
	name   string
	t0, t1 time.Time
}

// mark times f and records it under name.
func (p *probes) mark(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	p.marks[p.n] = probeMark{name, t0, t1}
	p.n++
	return t1.Sub(t0)
}

// layerStats aggregates one caller's traced window.
type layerStats struct {
	means map[string]*mean
	dists map[string]*reservoir
	self  map[string]time.Duration // self time per layer, summed
	calls int
	callT time.Duration // summed duration of the timed calls
}

func newLayerStats() *layerStats {
	return &layerStats{means: map[string]*mean{}, dists: map[string]*reservoir{}, self: map[string]time.Duration{}}
}

func (ls *layerStats) add(name string, v float64) {
	m := ls.means[name]
	if m == nil {
		m = &mean{}
		ls.means[name] = m
	}
	m.add(v)
}

func (ls *layerStats) sample(name string, v float64) {
	r := ls.dists[name]
	if r == nil {
		r = newReservoir(1<<14, uint64(len(ls.dists)+1))
		ls.dists[name] = r
	}
	r.add(v)
}

func (ls *layerStats) merge(o *layerStats) {
	for k, m := range o.means {
		if ls.means[k] == nil {
			ls.means[k] = &mean{}
		}
		ls.means[k].merge(*m)
	}
	for k, r := range o.dists {
		if ls.dists[k] == nil {
			ls.dists[k] = newReservoir(0, 0)
		}
		ls.dists[k].s = append(ls.dists[k].s, r.s...)
		ls.dists[k].n += r.n
	}
	for k, d := range o.self {
		ls.self[k] += d
	}
	ls.calls += o.calls
	ls.callT += o.callT
}

// explain aggregates the explain spans of one planning call, records
// them under parent (placed so the trace ends at end), attributes their
// self time to layers, and returns the summed duration of the depth-0
// spans. Time a probe measured for work inside a span (classify inside
// route, fingerprint inside cache_lookup) moves from the span's layer
// to the probed layer, capped at the span's own self time.
func (ls *layerStats) explain(ct callTrace, pr probes, rec *spanRec, parent int32, end time.Duration) time.Duration {
	var d0 time.Duration
	base := end - ct.total
	ids := make([]int32, 0, 8) // span ID by depth
	for i, s := range ct.spans {
		var children time.Duration
		for _, c := range ct.spans[i+1:] {
			if c.depth <= s.depth {
				break
			}
			if c.depth == s.depth+1 {
				children += c.dur
			}
		}
		self := s.dur - children
		p := parent
		if s.depth > 0 && s.depth <= len(ids) {
			p = ids[s.depth-1]
		}
		ids = append(ids[:min(s.depth, len(ids))], rec.add(s.phase, p, base+s.start, base+s.start+s.dur))
		if s.depth == 0 {
			d0 += s.dur
		}
		us := float64(s.dur) / 1e3
		switch s.phase {
		case "route":
			ls.add("repro.route_us", us)
			moved := min(pr.classify, self)
			ls.self["shape"] += moved
			ls.self["repro"] += self - moved
		case "cache_lookup":
			ls.add("repro.cache_lookup_us", us)
			moved := min(pr.fingerprint, self)
			ls.self["hypergraph"] += moved
			ls.self["repro"] += self - moved
		case "enumerate":
			if ct.routed == "iterdp" {
				// IterDP's final exact pass: the tier's own time.
				ls.self["iterdp"] += self
				break
			}
			alg := enumLayer(ct.routed)
			ls.sample("enum."+alg+".us", us)
			ls.add("enum."+alg+".dur_us", us)
			ls.add("enum."+alg+".pairs", float64(s.pairs))
			ls.self["enumerators"] += self
		case "fallback":
			ls.sample("enum.goo.us", us)
			ls.add("enum.goo.dur_us", us)
			ls.add("enum.goo.pairs", float64(s.pairs))
			ls.self["enumerators"] += self
		case "iterdp_round":
			ls.add("iterdp.round_us", us)
			ls.self["iterdp"] += self
		case "recost":
			ls.add("iterdp.recost_us", us)
			ls.self["iterdp"] += self
		case "materialize", "collect", "price":
			ls.add("memo."+s.phase+"_us", us)
			ls.self["memo"] += self
		default:
			ls.self["repro"] += self
		}
	}
	if ct.miss {
		if ct.grows >= 0 {
			ls.add("memo.grows_per_plan", float64(ct.grows))
		}
		if ct.routed == "iterdp" {
			ls.add("iterdp.rounds", float64(ct.rounds))
			ls.add("iterdp.subproblems", float64(ct.subs))
		}
	}
	return d0
}

// values turns the aggregate into per-layer metric values.
func (ls *layerStats) values(v map[string]float64) {
	for k, m := range ls.means {
		v[k] = m.value()
	}
	for k, r := range ls.dists {
		slices.Sort(r.s)
		v[k] = quantile(r.s, 0.5)
	}
	for _, alg := range enumAlgs {
		if d, p := ls.means["enum."+alg+".dur_us"], ls.means["enum."+alg+".pairs"]; d != nil && p != nil && p.sum > 0 {
			v["enum."+alg+".ns_per_pair"] = d.sum * 1e3 / p.sum
		}
	}
}

// printSelf prints the mean self time per layer and call, and the share
// of the mean call time the given layers account for.
func (ls *layerStats) printSelf(w io.Writer, name string, check ...string) {
	if ls.calls == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(ls.calls) / 1e3 }
	fmt.Fprintf(w, "%s layer self time, mean per call (%d calls, mean call %.3f us):\n", name, ls.calls, per(ls.callT))
	for _, l := range layers {
		if d, ok := ls.self[l]; ok {
			fmt.Fprintf(w, "  %-12s %12.3f us  %5.1f%%\n", l, per(d), 100*float64(d)/float64(ls.callT))
		}
	}
	if len(check) > 0 {
		var sum time.Duration
		for _, l := range check {
			sum += ls.self[l]
		}
		fmt.Fprintf(w, "  %v together: %.1f%% of the mean call time\n", check, 100*float64(sum)/float64(ls.callT))
	}
}
