package obs

import (
	"sync"
	"time"
)

// DefaultRingSize is the capacity of a SlowRing unless the server
// configures otherwise.
const DefaultRingSize = 32

// RingEntry summarizes one finished planning request for the
// /debug/plans surface. Trace is non-nil only when the request was
// traced (explain=1 or sampled); the summary fields are always filled
// so an untraced slow plan is still attributable.
type RingEntry struct {
	Seq         uint64        // monotone admission sequence (debugging aid)
	Time        time.Time     // when the plan finished
	Fingerprint string        // coalescing/cache key hash identifying the query
	Shape       string        // topology class ("unclassified" when unrouted)
	Algorithm   string        // algorithm that produced the plan
	Relations   int           // query size
	Duration    time.Duration // wall time of the planning call
	Pairs       int64         // csg-cmp-pairs the enumeration emitted
	CacheHit    bool
	Coalesced   bool
	Fallback    bool   // greedy fallback after a budget trip
	Trace       *Trace // phase spans, when the request was traced
}

// SlowRing keeps the N slowest plans seen so far: a bounded set where
// a finished plan displaces the current fastest member once the ring
// is full, and is dropped if it is faster than everything already
// there. Eviction order is therefore strictly by duration — the
// fastest resident always goes first — which is what /debug/plans
// wants: the ring converges on the worst requests the server has
// served, not merely the latest.
type SlowRing struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	entries []RingEntry
}

// NewSlowRing returns a ring keeping the n slowest plans
// (DefaultRingSize when n <= 0).
func NewSlowRing(n int) *SlowRing {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &SlowRing{cap: n, entries: make([]RingEntry, 0, n)}
}

// Observe offers one finished plan to the ring and reports whether it
// was admitted. The entry's Seq is assigned here.
func (r *SlowRing) Observe(e RingEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq
	if len(r.entries) < r.cap {
		r.entries = append(r.entries, e)
		return true
	}
	// Full: evict the fastest resident iff the newcomer is slower.
	min := 0
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].Duration < r.entries[min].Duration {
			min = i
		}
	}
	if e.Duration <= r.entries[min].Duration {
		return false
	}
	r.entries[min] = e
	return true
}

// Snapshot returns the resident entries sorted slowest-first (ties by
// recency, newest first). The returned slice is a copy.
func (r *SlowRing) Snapshot() []RingEntry {
	r.mu.Lock()
	out := make([]RingEntry, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	// Insertion sort: the ring is small (tens of entries).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if b.Duration > a.Duration || (b.Duration == a.Duration && b.Seq > a.Seq) {
				out[j-1], out[j] = out[j], out[j-1]
			} else {
				break
			}
		}
	}
	return out
}

// Len returns the number of resident entries.
func (r *SlowRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
