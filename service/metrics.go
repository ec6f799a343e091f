package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// defaultLatencyBounds spans 100µs..10s — cached star-query hits sit in
// the lowest buckets, budgeted exact enumerations in the middle, and
// anything near the top is about to trip a deadline.
var defaultLatencyBounds = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// metrics aggregates the server-side counters; the planner's own
// cumulative counters are pulled fresh from Planner.Metrics at scrape
// time rather than mirrored here.
type metrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[reqKey]uint64

	latency *obs.Histogram // /plan and /batch handler latency

	timeouts atomic.Uint64 // requests that ended in 504 //dp:atomic
	panics   atomic.Uint64 // handler panics converted to 500 //dp:atomic
}

// writeMemoMetrics renders the planner's memo-engine counters: csg-cmp
// pairs emitted (the paper's §2.2 effort yardstick, summed over the
// session), enumeration runs that started on recycled memo storage, and
// the DP-table occupancy high-water mark. Together with the cache
// counters these make the storage half of the enumeration observable:
// arena reuse should approach 100% of cache misses under steady traffic.
func writeMemoMetrics(w io.Writer, pairsEmitted, arenaReuses uint64, memoPeakEntries int) {
	fmt.Fprintf(w, "# TYPE planner_pairs_emitted_total counter\nplanner_pairs_emitted_total %d\n", pairsEmitted)
	fmt.Fprintf(w, "# TYPE planner_arena_reuses_total counter\nplanner_arena_reuses_total %d\n", arenaReuses)
	fmt.Fprintf(w, "# TYPE planner_memo_peak_entries gauge\nplanner_memo_peak_entries %d\n", memoPeakEntries)
}

// writeParallelMetrics renders the planner's parallel-enumeration
// counters: how many enumerations ran on worker views and how many
// csg-cmp-pairs those workers processed. Together with
// planner_pairs_emitted_total these show what fraction of enumeration
// effort the multi-core path absorbs.
func writeParallelMetrics(w io.Writer, runs, pairs uint64) {
	fmt.Fprintf(w, "# TYPE planner_parallel_runs_total counter\nplanner_parallel_runs_total %d\n", runs)
	fmt.Fprintf(w, "# TYPE planner_parallel_pairs_total counter\nplanner_parallel_pairs_total %d\n", pairs)
}

// reqKey labels one request-counter series.
type reqKey struct {
	path string
	code int
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		requests: make(map[reqKey]uint64),
		latency:  obs.NewHistogram(defaultLatencyBounds),
	}
}

// writeLatency renders the handler-latency histogram family.
func (m *metrics) writeLatency(w io.Writer) {
	const name = "dpserved_request_duration_seconds"
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	m.latency.Write(w, name, "")
}

func (m *metrics) recordRequest(path string, code int) {
	m.mu.Lock()
	m.requests[reqKey{path, code}]++
	m.mu.Unlock()
}

// writeRequests renders the per-path/per-code request counters sorted
// for stable scrapes.
func (m *metrics) writeRequests(w io.Writer) {
	m.mu.Lock()
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	counts := make([]uint64, len(keys))
	for i, k := range keys {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE dpserved_http_requests_total counter\n")
	for i, k := range keys {
		fmt.Fprintf(w, "dpserved_http_requests_total{path=%q,code=\"%d\"} %d\n", k.path, k.code, counts[i])
	}
}
