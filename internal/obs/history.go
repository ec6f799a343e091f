package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// historyVersion is the on-disk format version. A loaded file with a
// different version (or different bucket bounds) is rejected rather
// than silently merged into mismatched buckets.
const historyVersion = 1

// HistoryEntry is one persisted series: the shape × algorithm ×
// n-bucket key, the cumulative observation count and latency sum, the
// per-bucket counts (parallel to Bounds, non-cumulative), and the
// derived p50/p99 — recomputed at save time so consumers that only
// want the headline quantiles never need the buckets.
type HistoryEntry struct {
	Shape      string   `json:"shape"`
	Algorithm  string   `json:"algorithm"`
	N          string   `json:"n"`
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []uint64 `json:"buckets"`
	P50Seconds float64  `json:"p50_seconds"`
	P99Seconds float64  `json:"p99_seconds"`
}

// historyFile is the JSON document at rest.
type historyFile struct {
	Version     int            `json:"version"`
	UpdatedUnix int64          `json:"updated_unix"`
	Bounds      []float64      `json:"bounds"`
	Entries     []HistoryEntry `json:"entries"`
}

// History is the persistent planning-cost record: per shape ×
// algorithm × n-bucket, enough bucket mass to answer "what does
// planning this kind of query usually cost here" — the input the
// planning-time budget router (ROADMAP item 5) consumes. It is a
// plain value (no atomics): snapshots come from PlanMetrics, merges
// and saves happen on one goroutine.
type History struct {
	bounds  []float64
	entries map[Key]*HistoryEntry
}

// NewHistory returns an empty history over DefaultBounds.
func NewHistory() *History {
	return &History{bounds: DefaultBounds, entries: make(map[Key]*HistoryEntry)}
}

func (h *History) add(k Key, count uint64, sum float64, buckets []uint64) {
	e := h.entries[k]
	if e == nil {
		e = &HistoryEntry{Shape: k.Shape, Algorithm: k.Algorithm, N: k.N,
			Buckets: make([]uint64, len(h.bounds))}
		h.entries[k] = e
	}
	e.Count += count
	e.SumSeconds += sum
	for i := range buckets {
		if i < len(e.Buckets) {
			e.Buckets[i] += buckets[i]
		}
	}
}

// Merge folds other into h (bucket-wise addition). Histories over
// different bounds cannot merge and return an error.
func (h *History) Merge(other *History) error {
	if other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merging histories with different bucket bounds (%d vs %d)",
			len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("obs: merging histories with different bucket bounds at %d", i)
		}
	}
	for k, e := range other.entries {
		h.add(k, e.Count, e.SumSeconds, e.Buckets)
	}
	return nil
}

// Clone returns a deep copy, so a loaded baseline can be merged with a
// live snapshot repeatedly without accumulating across saves.
func (h *History) Clone() *History {
	out := &History{bounds: h.bounds, entries: make(map[Key]*HistoryEntry, len(h.entries))}
	for k, e := range h.entries {
		ce := *e
		ce.Buckets = append([]uint64(nil), e.Buckets...)
		out.entries[k] = &ce
	}
	return out
}

// Len returns the number of recorded series.
func (h *History) Len() int { return len(h.entries) }

// Entries returns the series sorted by (shape, algorithm, n), with
// P50Seconds/P99Seconds freshly derived from the buckets.
func (h *History) Entries() []HistoryEntry {
	out := make([]HistoryEntry, 0, len(h.entries))
	for _, e := range h.entries {
		ce := *e
		ce.Buckets = append([]uint64(nil), e.Buckets...)
		ce.P50Seconds = Quantile(h.bounds, ce.Buckets, ce.Count, 0.50)
		ce.P99Seconds = Quantile(h.bounds, ce.Buckets, ce.Count, 0.99)
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shape != out[j].Shape {
			return out[i].Shape < out[j].Shape
		}
		if out[i].Algorithm != out[j].Algorithm {
			return out[i].Algorithm < out[j].Algorithm
		}
		return out[i].N < out[j].N
	})
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) of planning latency
// for the series k, by linear interpolation inside the histogram
// buckets. The second return is false when the series has no
// observations. Mass above the last bound reports the last bound — a
// lower bound on the true quantile, which is the conservative
// direction for a budget router ("at least this expensive").
func (h *History) Quantile(k Key, q float64) (time.Duration, bool) {
	e := h.entries[k]
	if e == nil || e.Count == 0 {
		return 0, false
	}
	return time.Duration(Quantile(h.bounds, e.Buckets, e.Count, q) * float64(time.Second)), true
}

// Quantile interpolates the q-quantile in seconds from non-cumulative
// bucket counts over bounds; count is the total observation count,
// including any mass beyond the last bound. Entries of buckets past
// len(bounds) (an overflow bucket) are ignored, and a quantile that
// falls in the overflow reports the last bound.
func Quantile(bounds []float64, buckets []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	target := q * float64(count)
	var cum uint64
	for i, b := range buckets {
		if i >= len(bounds) {
			break
		}
		prev := cum
		cum += b
		if float64(cum) >= target && b > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (target - float64(prev)) / float64(b)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(bounds[i]-lo)
		}
	}
	// The quantile sits in the +Inf overflow; report the last bound.
	return bounds[len(bounds)-1]
}

// Save writes the history atomically (WriteFileAtomic) as JSON.
func (h *History) Save(path string) error {
	doc := historyFile{
		Version:     historyVersion,
		UpdatedUnix: time.Now().Unix(),
		Bounds:      h.bounds,
		Entries:     h.Entries(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding history: %w", err)
	}
	data = append(data, '\n')
	if err := WriteFileAtomic(path, ".history-*.json", data); err != nil {
		return fmt.Errorf("obs: saving history: %w", err)
	}
	return nil
}

// LoadHistory reads a history file. A missing file is not an error —
// it returns an empty history, so first boots and wiped volumes start
// clean. A present-but-unreadable file is an error: silently dropping
// accumulated cost history would quietly degrade the budget router.
func LoadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewHistory(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: loading history: %w", err)
	}
	var doc historyFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: decoding history %s: %w", path, err)
	}
	if doc.Version != historyVersion {
		return nil, fmt.Errorf("obs: history %s has version %d, want %d", path, doc.Version, historyVersion)
	}
	if len(doc.Bounds) != len(DefaultBounds) {
		return nil, fmt.Errorf("obs: history %s has %d bucket bounds, want %d", path, len(doc.Bounds), len(DefaultBounds))
	}
	for i := range doc.Bounds {
		if doc.Bounds[i] != DefaultBounds[i] {
			return nil, fmt.Errorf("obs: history %s bucket bounds differ at %d", path, i)
		}
	}
	h := NewHistory()
	for _, e := range doc.Entries {
		buckets := e.Buckets
		if len(buckets) > len(h.bounds) {
			buckets = buckets[:len(h.bounds)]
		}
		h.add(Key{Shape: e.Shape, Algorithm: e.Algorithm, N: e.N}, e.Count, e.SumSeconds, buckets)
	}
	return h, nil
}
