// Package hot exercises every construct hotpathalloc flags and the
// arena idioms it must allow.
package hot

import "fmt"

type enum struct {
	buf   []uint64
	pairs int
}

func noop() {}

func sink(v any)            {}
func variadic(vs ...any)    {}
func sinkErr(err error) int { return 0 }

//dp:hotpath
func allocs(n int) {
	_ = []int{1, 2}          // want `slice literal allocates on a //dp:hotpath function`
	_ = map[int]int{}        // want `map literal allocates on a //dp:hotpath function`
	_ = &enum{}              // want `&composite literal escapes to the heap on a //dp:hotpath function`
	_ = make([]byte, n)      // want `make allocates on a //dp:hotpath function`
	_ = new(enum)            // want `new allocates on a //dp:hotpath function`
	_ = func() {}            // want `function literal allocates a closure on a //dp:hotpath function`
	go noop()                // want `go statement on a //dp:hotpath function`
	_ = fmt.Sprintf("%d", n) // want `fmt call allocates on a //dp:hotpath function`
	_ = enum{}               // stack value, no finding
}

//dp:hotpath
func boxing(n int, sl []any, e error) {
	sink(n)         // want `argument boxes int into`
	variadic(n, n)  // want `argument boxes int into` `argument boxes int into`
	variadic(sl...) // forwarding a slice, no boxing
	sink(nil)       // nil never boxes
	sink(e)         // already an interface
	_ = sinkErr(nil)
}

// panicPath: panic arguments are by definition cold, the whole subtree
// is exempt.
//
//dp:hotpath
func panicPath(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad %d", n))
	}
}

// arena is the reuse idiom: reslice to zero length, append within the
// provisioned capacity.
//
//dp:hotpath
func arena(e *enum, xs []uint64) {
	buf := e.buf[:0]
	for _, x := range xs {
		buf = append(buf, x)
	}
	e.buf = append(e.buf[:0], buf...)
}

//dp:hotpath
func growingAppend(e *enum, x uint64) {
	e.buf = append(e.buf, x) // want `append may grow its backing array on a //dp:hotpath function`
	var out []uint64
	out = append(out, x) // want `append may grow its backing array on a //dp:hotpath function`
	_ = out
}

// root has no allocation itself; the finding surfaces in its
// unannotated static callee, pulled in by the closure walk.
//
//dp:hotpath
func root(e *enum) {
	callee(e)
	coldGrow(e)
}

func callee(e *enum) {
	e.buf = append(e.buf, 1) // want `append may grow its backing array on a //dp:hotpath function`
}

// coldGrow is the annotated slow path: the closure walk stops here, so
// its allocations are deliberate and unreported.
//
//dp:coldpath doubling growth is amortized over the enumeration
func coldGrow(e *enum) {
	next := make([]uint64, 0, 2*cap(e.buf)+16)
	e.buf = append(next, e.buf...)
}

//dp:coldpath
func badCold() {} // want `//dp:coldpath requires a justification: //dp:coldpath <reason>`

//dp:hotpath
//dp:coldpath it cannot be both
func conflicted() {} // want `function is marked both //dp:hotpath and //dp:coldpath`

// notHot is unannotated and unreachable from any root: allocate freely.
func notHot() []int {
	return []int{1, 2, 3}
}

// span is fixed-size phase storage, mirroring internal/obs.
type span struct {
	phase uint8
	start int64
	dur   int64
}

// recorder is the observability hook idiom (internal/obs.Trace): a
// nil-receiver-safe recorder whose spans live in a pre-sized array, so
// hot enumeration code may call it at phase boundaries. All of it must
// be finding-free — writing into fixed storage is not an allocation.
type recorder struct {
	n     int32
	spans [8]span
}

//dp:hotpath
func (t *recorder) start(p uint8, now int64) int32 {
	if t == nil || int(t.n) >= len(t.spans) {
		return -1
	}
	h := t.n
	t.n++
	t.spans[h] = span{phase: p, start: now}
	return h
}

//dp:hotpath
func (t *recorder) end(h int32, now int64) {
	if t == nil || h < 0 || h >= t.n {
		return
	}
	t.spans[h].dur = now - t.spans[h].start
}

// traced is a hot function instrumented with the recorder: the span
// hooks ride along the closure walk and stay clean.
//
//dp:hotpath
func traced(e *enum, t *recorder, now int64) {
	h := t.start(1, now)
	e.pairs++
	t.end(h, now)
}

// pairRec is a record collected on the hot emission path for later
// processing.
type pairRec struct{ s1, s2 uint64 }

// collector is the pooled-buffer idiom of the memo engine's arena
// appends: the buffer is recycled through a pool, so its capacity
// survives across runs and append growth is a warmup cost, not a
// steady-state allocation. The analyzer cannot see pool lifetimes, so
// the site carries a //nolint with a written justification — the
// suppression (not a finding) is what the test asserts.
type collector struct {
	recs []pairRec
}

//dp:hotpath
func (c *collector) deferPair(s1, s2 uint64) {
	//nolint:hotpathalloc // append into a pooled buffer: capacity survives pool round-trips, so steady state does not grow
	c.recs = append(c.recs, pairRec{s1: s1, s2: s2})
}
