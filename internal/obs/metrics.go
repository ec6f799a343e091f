package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBounds are the planning-latency histogram bucket upper bounds
// in seconds, 10µs..10s: cache hits sit in the lowest buckets, small
// exact enumerations in the middle, iterdp runs over hundreds of
// relations near the top, and anything beyond the last bound is about
// to trip a deadline.
var DefaultBounds = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005, .001, .0025, .005,
	.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with atomic counters,
// rendered in the Prometheus cumulative style. Buckets are upper
// bounds in seconds; observations above the last bound land only in
// the total count (+Inf).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // buckets[i] counts observations ≤ bounds[i] (non-cumulative; summed at render)
	count   atomic.Uint64   //dp:atomic
	sumNs   atomic.Uint64   //dp:atomic
}

// NewHistogram returns a histogram over the given bucket bounds
// (DefaultBounds when nil). The bounds slice is retained, not copied.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if i := BucketIndex(h.bounds, d.Seconds()); i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed durations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Snapshot copies the per-bucket (non-cumulative) counts.
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Write renders the histogram in Prometheus text exposition format
// under the given metric name and (pre-rendered, brace-free) label
// string, e.g. `shape="star",algorithm="dphyp",n="1-8"`. The snapshot
// is taken under concurrent Observe calls (which bump a bucket before
// the total), so each cumulative bucket is capped at the total read
// first — keeping the rendered histogram monotone with +Inf == count
// even when a scrape lands between the two increments.
func (h *Histogram) Write(w io.Writer, name, labels string) {
	count := h.count.Load()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if cum > count {
			cum = count
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, count)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, count)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	}
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// BucketIndex returns the index of the first bound at or above seconds,
// or len(bounds) when seconds exceeds the last bound (the +Inf
// overflow).
func BucketIndex(bounds []float64, seconds float64) int {
	for i, b := range bounds {
		if seconds <= b {
			return i
		}
	}
	return len(bounds)
}

// NBucket maps a relation count to its stable bucket label. The
// boundaries follow the planning regimes: ≤8 is the cached/interactive
// tier, 9–16 the exact sweet spot, 17–32 budgeted exact, 33–64 the
// single-word ceiling, 65–128 and beyond the iterdp tier.
func NBucket(n int) string {
	switch {
	case n <= 8:
		return "1-8"
	case n <= 16:
		return "9-16"
	case n <= 32:
		return "17-32"
	case n <= 64:
		return "33-64"
	case n <= 128:
		return "65-128"
	case n <= 256:
		return "129-256"
	default:
		return "257+"
	}
}

// Key identifies one dimensional metric series. All three fields are
// stable label values: Shape is the topology class the router saw
// ("unclassified" when planning bypassed the router), Algorithm the
// algorithm that actually produced the plan, and N the NBucket label
// of the query's relation count.
type Key struct {
	Shape     string
	Algorithm string
	N         string
}

// cell is the per-series state: the latency histogram plus a
// cache-hit count (hits are included in the histogram; the counter
// lets consumers separate hit latency from enumeration latency).
type cell struct {
	hist *Histogram
	hits atomic.Uint64 //dp:atomic
}

// PlanMetrics is the dimensional planning-latency registry: one
// histogram (and cache-hit counter) per shape × algorithm × n-bucket
// series, created on first observation. Safe for concurrent use; the
// steady-state Observe path is a read-locked map probe plus atomic
// bumps — no allocation once a series exists.
type PlanMetrics struct {
	mu     sync.RWMutex
	cells  map[Key]*cell
	bounds []float64
}

// NewPlanMetrics returns an empty registry over DefaultBounds.
func NewPlanMetrics() *PlanMetrics {
	return &PlanMetrics{cells: make(map[Key]*cell), bounds: DefaultBounds}
}

// Observe records one successful planning call: its latency into the
// series histogram, and the hit counter when the plan came from the
// plan cache. Cache hits MUST be observed too — the per-shape history
// that budget routing consumes is about what a request costs, and for
// cached traffic that cost is the lookup, not the enumeration.
func (m *PlanMetrics) Observe(k Key, d time.Duration, cacheHit bool) {
	m.mu.RLock()
	c := m.cells[k]
	m.mu.RUnlock()
	if c == nil {
		m.mu.Lock()
		c = m.cells[k]
		if c == nil {
			c = &cell{hist: NewHistogram(m.bounds)}
			m.cells[k] = c
		}
		m.mu.Unlock()
	}
	c.hist.Observe(d)
	if cacheHit {
		c.hits.Add(1)
	}
}

// Keys returns the materialized series keys in deterministic order.
func (m *PlanMetrics) Keys() []Key {
	m.mu.RLock()
	keys := make([]Key, 0, len(m.cells))
	for k := range m.cells {
		keys = append(keys, k)
	}
	m.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Shape != keys[j].Shape {
			return keys[i].Shape < keys[j].Shape
		}
		if keys[i].Algorithm != keys[j].Algorithm {
			return keys[i].Algorithm < keys[j].Algorithm
		}
		return keys[i].N < keys[j].N
	})
	return keys
}

// WritePrometheus renders every series as one histogram family named
// name (plus a <name ± suffix> cache-hit counter family), labeled by
// shape, algorithm, and n.
func (m *PlanMetrics) WritePrometheus(w io.Writer, name string) {
	keys := m.Keys()
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, k := range keys {
		m.mu.RLock()
		c := m.cells[k]
		m.mu.RUnlock()
		c.hist.Write(w, name, labelsFor(k))
	}
	fmt.Fprintf(w, "# TYPE %s_cache_hits_total counter\n", name)
	for _, k := range keys {
		m.mu.RLock()
		c := m.cells[k]
		m.mu.RUnlock()
		fmt.Fprintf(w, "%s_cache_hits_total{%s} %d\n", name, labelsFor(k), c.hits.Load())
	}
}

func labelsFor(k Key) string {
	return fmt.Sprintf("shape=%q,algorithm=%q,n=%q", k.Shape, k.Algorithm, k.N)
}

// Quantile estimates the q-quantile (0 < q < 1) of the live series k —
// History.Quantile over the in-process registry instead of a persisted
// file. The count return is the series' observation total, so a budget
// router can demand a minimum sample size before trusting the estimate
// over its colder fallbacks; ok is false for an empty or absent series.
func (m *PlanMetrics) Quantile(k Key, q float64) (d time.Duration, count uint64, ok bool) {
	m.mu.RLock()
	c := m.cells[k]
	m.mu.RUnlock()
	if c == nil {
		return 0, 0, false
	}
	count = c.hist.Count()
	if count == 0 {
		return 0, 0, false
	}
	d = time.Duration(Quantile(m.bounds, c.hist.Snapshot(), count, q) * float64(time.Second))
	return d, count, true
}

// Snapshot captures the registry into a History: one entry per series
// with the bucket counts, count, and sum as of now. The snapshot is
// cumulative since process start; merge it over a loaded baseline
// before persisting (see History.Merge).
func (m *PlanMetrics) Snapshot() *History {
	h := NewHistory()
	for _, k := range m.Keys() {
		m.mu.RLock()
		c := m.cells[k]
		m.mu.RUnlock()
		h.add(k, c.hist.Count(), c.hist.Sum(), c.hist.Snapshot())
	}
	return h
}
