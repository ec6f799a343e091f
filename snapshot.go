package repro

// Warm-start snapshots: plan-cache persistence.
//
// A snapshot captures the planner's plan cache — every entry's full key
// (configuration + canonical graph fingerprint), its algorithm, its
// enumeration Stats, and its plan tree — as versioned JSON, written
// atomically (temp file + rename, the same discipline as obs.History)
// so a crash mid-save can never destroy the previous snapshot. A
// restarted process restores the file before taking traffic and serves
// its first request on a warm fingerprint from cache, no enumeration.
//
// Loading is strict: a snapshot that fails to parse, carries the wrong
// version, or contains any entry whose plan does not validate is
// rejected wholesale — a plan cache is a correctness-critical structure
// and a half-trusted file is worse than a cold one. The serving layer
// reacts to a rejection by logging loudly and disabling persistence for
// the process lifetime without overwriting the file, so the evidence
// survives for inspection (see service.Config.SnapshotPath).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/algebra"
	"repro/internal/plan"
)

// snapshotVersion is the on-disk format version. A loaded file with a
// different version is rejected (strict equality: entries embed plan
// trees, and guessing at a future layout risks serving a wrong plan).
const snapshotVersion = 1

type snapshotDoc struct {
	Version int             `json:"version"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one cached plan. Key is the cache's own composite
// key — appendConfigKey(options) + NUL + graph fingerprint — kept opaque:
// the snapshot never needs to interpret it, only to match it against
// future lookups byte-for-byte.
type snapshotEntry struct {
	Key       string   `json:"key"`
	Algorithm string   `json:"algorithm"`
	Stats     Stats    `json:"stats"`
	Plan      snapNode `json:"plan"`
}

// snapNode is the persisted form of a plan.Node. Leaves carry rel ≥ 0
// and no children; inner nodes carry an operator name and both
// children. Rels is not persisted — it is derivable and re-derived on
// decode, which is one less field a corrupted file can lie about.
type snapNode struct {
	Op    string    `json:"op,omitempty"`
	Phys  string    `json:"phys,omitempty"`
	Rel   int       `json:"rel"`
	Card  float64   `json:"card"`
	Cost  float64   `json:"cost"`
	Edges []int     `json:"edges,omitempty"`
	Left  *snapNode `json:"left,omitempty"`
	Right *snapNode `json:"right,omitempty"`
}

func encodePlan(n *PlanNode) snapNode {
	s := snapNode{Rel: n.Rel, Card: n.Card, Cost: n.Cost}
	if len(n.Edges) > 0 {
		s.Edges = append([]int(nil), n.Edges...)
	}
	if n.Phys != algebra.PhysNone {
		s.Phys = n.Phys.String()
	}
	if !n.IsLeaf() {
		s.Op = n.Op.String()
		l, r := encodePlan(n.Left), encodePlan(n.Right)
		s.Left, s.Right = &l, &r
	}
	return s
}

// decodePlan rebuilds and validates a plan tree. Every numeric field is
// checked for sanity (finite, non-negative) and the rebuilt tree must
// pass plan.Validate — a snapshot that decodes into an inconsistent
// tree is corrupt, whatever the JSON layer thought of it.
func decodePlan(s *snapNode) (*PlanNode, error) {
	if math.IsNaN(s.Card) || math.IsInf(s.Card, 0) || s.Card < 0 {
		return nil, fmt.Errorf("node has invalid cardinality %v", s.Card)
	}
	if math.IsNaN(s.Cost) || math.IsInf(s.Cost, 0) || s.Cost < 0 {
		return nil, fmt.Errorf("node has invalid cost %v", s.Cost)
	}
	if (s.Left == nil) != (s.Right == nil) {
		return nil, fmt.Errorf("node has exactly one child")
	}
	var n *PlanNode
	if s.Left == nil {
		if s.Op != "" {
			return nil, fmt.Errorf("leaf carries operator %q", s.Op)
		}
		if s.Rel < 0 {
			return nil, fmt.Errorf("leaf has negative relation index %d", s.Rel)
		}
		n = plan.Leaf(s.Rel, s.Card)
		n.Cost = s.Cost
	} else {
		op, err := algebra.ParseOp(s.Op)
		if err != nil {
			return nil, err
		}
		if !op.Valid() {
			return nil, fmt.Errorf("inner node with operator %q", s.Op)
		}
		left, err := decodePlan(s.Left)
		if err != nil {
			return nil, err
		}
		right, err := decodePlan(s.Right)
		if err != nil {
			return nil, err
		}
		n = plan.Join(op, left, right, append([]int(nil), s.Edges...), s.Card, s.Cost)
	}
	if s.Phys != "" {
		phys, err := algebra.ParsePhysOp(s.Phys)
		if err != nil {
			return nil, err
		}
		n.Phys = phys
	}
	return n, nil
}

// SaveCacheSnapshot atomically persists the plan cache to path (temp
// file in the same directory + rename). A planner with caching disabled
// writes nothing and returns nil. The snapshot is a point-in-time copy:
// concurrent planning during the save is safe and simply may or may not
// be included.
func (p *Planner) SaveCacheSnapshot(path string) error {
	if p.cache == nil {
		return nil
	}
	doc := snapshotDoc{Version: snapshotVersion}
	for _, e := range p.cache.snapshotEntries() {
		doc.Entries = append(doc.Entries, snapshotEntry{
			Key:       e.key,
			Algorithm: e.alg.String(),
			Stats:     e.stats,
			Plan:      encodePlan(e.plan),
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("repro: encoding cache snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plancache-*.tmp")
	if err != nil {
		return fmt.Errorf("repro: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("repro: writing cache snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("repro: closing cache snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("repro: installing cache snapshot: %w", err)
	}
	return nil
}

// LoadCacheSnapshot restores the plan cache from the snapshot at path,
// returning the number of entries restored. A missing file is a clean
// cold start (0, nil). Anything else that goes wrong — unreadable file,
// malformed JSON, version mismatch, or any entry with an unknown
// algorithm or an invalid plan tree — rejects the whole file and leaves
// the cache untouched: partial trust in a correctness-critical
// structure is not worth one warm entry.
//
// Entries are restored oldest-first, so the cache's LRU recency order
// survives the round trip; entries beyond the cache's capacity age out
// exactly as if they had been planned in that order.
func (p *Planner) LoadCacheSnapshot(path string) (int, error) {
	if p.cache == nil {
		return 0, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repro: reading cache snapshot: %w", err)
	}
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("repro: cache snapshot %s is corrupt: %w", path, err)
	}
	if doc.Version != snapshotVersion {
		return 0, fmt.Errorf("repro: cache snapshot %s has version %d, want %d",
			path, doc.Version, snapshotVersion)
	}
	restored := make([]cacheEntry, 0, len(doc.Entries))
	for i := range doc.Entries {
		e := &doc.Entries[i]
		if e.Key == "" {
			return 0, fmt.Errorf("repro: cache snapshot %s: entry %d has empty key", path, i)
		}
		alg, err := ParseAlgorithm(e.Algorithm)
		if err != nil {
			return 0, fmt.Errorf("repro: cache snapshot %s: entry %d: %w", path, i, err)
		}
		pl, err := decodePlan(&e.Plan)
		if err != nil {
			return 0, fmt.Errorf("repro: cache snapshot %s: entry %d: %w", path, i, err)
		}
		if err := pl.Validate(); err != nil {
			return 0, fmt.Errorf("repro: cache snapshot %s: entry %d: %w", path, i, err)
		}
		// Scrub per-request state the snapshot should never carry: the
		// cache stores pre-annotation stats, but a hand-edited or
		// future-format file must not be able to smuggle these in.
		st := e.Stats
		st.CacheHit = false
		st.Trace = nil
		st.PlanBudget, st.PredictedCost = 0, 0
		st.SLORung, st.SLODegraded, st.SLOMet = 0, false, false
		restored = append(restored, cacheEntry{key: e.Key, plan: pl, stats: st, alg: alg})
	}
	for i := range restored {
		p.cache.add(restored[i].key, restored[i].plan, restored[i].stats, restored[i].alg)
	}
	n := len(restored)
	if c := p.cache.len(); c < n {
		n = c // capacity truncated the oldest entries
	}
	return n, nil
}
