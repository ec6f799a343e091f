package memo

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

// minSlots is the smallest table allocation. Power of two, large enough
// that the tiny queries dominating served traffic never grow the table.
const minSlots = 64

// maxLoadNum/maxLoadDen cap the load factor at 0.7: beyond that linear
// probing degrades into long clustered chains, below it memory is
// wasted on empty slots that still have to be cleared between runs.
const (
	maxLoadNum = 7
	maxLoadDen = 10
)

// DirectMaxRels is the largest relation count whose runs index the
// table directly by the relation set's word (ResetDirect): 2^16 int32
// handles take 256 KB, and clearing the run's 2^n prefix is the direct
// table's cost per run, paid however few entries the run makes. A
// paired probe on 2 CPUs (DPhyp, cache off, 12 alternating rounds of
// an open-addressing-only build, this cutoff and a cutoff of 20; the
// runs are recorded in CHANGES.md) read: at 16, star16 in 0.61× of the
// open-addressing build's time and chain16 and cycle16 in 0.86–0.87×;
// at 20, chain20 and cycle20 in 2.03× and 1.34× of their time at 16,
// because each run clears a 4 MB prefix for a few hundred entries, and
// star18 in 0.51×. lib-cold plans chains and cycles of 18 and 20
// relations and no star above 14, so runs above 16 relations keep open
// addressing.
const DirectMaxRels = 16

// Table maps non-empty bitset.Set keys to int32 values, specialized for
// the join-enumeration memo: the empty set is never a valid key (every
// memoed relation set contains at least one relation), and deletion is
// not supported — DP tables only ever grow within a run and are cleared
// wholesale between runs. The zero Table is an empty open-addressing
// table, ready to use.
//
// A run over at most DirectMaxRels relations indexes the table directly
// by the relation set's word (ResetDirect): direct[w] holds 1 + the
// value of the set whose word is w, and 0 marks a free slot, so a
// lookup is one bounds check and one load. Wider runs use open
// addressing with linear probing (Reset): the empty set marks a free
// slot, and keys hash through bitset.Hash, whose single-word path is
// one multiply; wide keys fold their tail words into the same 64-bit
// hash before slotting. Compared to a Go map this removes interface
// hashing, per-bucket overflow pointers, and tophash bookkeeping from
// the hottest lookup path of the enumeration loops.
type Table struct {
	direct []int32      // direct-indexed slots, length 2^n; empty in hash mode
	keys   []bitset.Set // power-of-two length; the empty set marks a free slot
	vals   []int32
	used   int
	shift  uint // 64 - log2(len(keys))
	grows  int  // rehash count since the last Reset
}

// shrinkFactor bounds how oversized recycled storage may be relative to
// the current run's hint before Reset reallocates it smaller. Without
// the bound, one huge query would permanently inflate a pooled engine:
// every later small run would pay a memclr over the giant key array and
// the memory would stay pinned for the process lifetime.
const shrinkFactor = 8

// Recycle returns s emptied for a run expecting about hint elements. It
// keeps the storage unless that is more than shrinkFactor times larger,
// in which case it returns nil and the run grows fresh storage. The
// arena and the backend's per-run caches follow this policy, so one
// huge run does not pin its storage on a pooled engine.
func Recycle[T any](s []T, hint int) []T {
	if cap(s) > hint*shrinkFactor {
		return nil
	}
	return s[:0]
}

// Reset prepares the table for an open-addressing run expecting
// roughly hint entries. The backing arrays are kept when they are
// already large enough — but not more than shrinkFactor times too large
// — so the arena-reuse fast path is a memclr; otherwise they are
// reallocated at the next power of two above hint/maxLoad. The
// direct-indexed slots keep their storage for a later ResetDirect. The
// return value reports whether existing storage was kept.
//
//dp:coldpath runs once per enumeration at setup (Put's empty-table lazy init included)
func (t *Table) Reset(hint int) (kept bool) {
	slots := minSlots
	for slots*maxLoadNum < hint*maxLoadDen {
		slots <<= 1
	}
	if len(t.keys) >= slots && len(t.keys) <= slots*shrinkFactor {
		clear(t.keys)
		kept = true
	} else {
		t.keys = make([]bitset.Set, slots)
		t.vals = make([]int32, slots)
	}
	t.direct = t.direct[:0]
	t.shift = 64 - uint(bits.TrailingZeros(uint(len(t.keys))))
	t.used = 0
	t.grows = 0
	return kept
}

// ResetDirect prepares the table for a run over n ≤ DirectMaxRels
// relations, indexed directly by the relation set's word: 2^n slots,
// all free. The slots keep the largest storage any run has used, at
// most 2^DirectMaxRels, and only the run's own 2^n prefix is cleared:
// a slot beyond it can hold an entry of an earlier, wider run, but
// every key of this run lies inside the prefix, and Get misses a key
// outside it. The open-addressing arrays keep their storage for a later
// Reset. The return value reports whether existing storage was kept.
//
//dp:coldpath runs once per enumeration at setup
func (t *Table) ResetDirect(n int) (kept bool) {
	if n < 0 || n > DirectMaxRels {
		panic(fmt.Sprintf("memo: direct-indexed table for %d relations (at most %d)", n, DirectMaxRels))
	}
	slots := 1 << uint(n)
	if kept = cap(t.direct) >= slots; kept {
		t.direct = t.direct[:slots]
		clear(t.direct)
	} else {
		t.direct = make([]int32, slots)
	}
	t.used = 0
	t.grows = 0
	return kept
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.used }

// Cap returns the number of slots: 2^n in a direct-indexed run.
func (t *Table) Cap() int {
	if len(t.direct) > 0 {
		return len(t.direct)
	}
	return len(t.keys)
}

// Grows returns how many times the table rehashed since the last Reset;
// a direct-indexed run never rehashes.
func (t *Table) Grows() int { return t.grows }

// Get returns the value stored for k. The empty set is never stored
// (Put panics on it) and always misses: its direct slot, 0, is never
// written, and the open-addressing probe guards it explicitly, since it
// would otherwise match the free-slot sentinel and return a stale
// value.
//
//dp:hotpath
func (t *Table) Get(k bitset.Set) (int32, bool) {
	if w, ok := k.Word(); ok && w < uint64(len(t.direct)) {
		v := t.direct[w]
		return v - 1, v != 0
	}
	return t.getHashed(k)
}

// getHashed is Get's open-addressing probe. In a direct-indexed run it
// misses: the key lies outside the run, and the open-addressing arrays
// hold a wider run's stale entries.
//
//dp:hotpath
func (t *Table) getHashed(k bitset.Set) (int32, bool) {
	if len(t.direct) > 0 || len(t.keys) == 0 || k.IsEmpty() {
		return 0, false
	}
	mask := uint(len(t.keys) - 1)
	i := uint(k.Hash()>>t.shift) & mask
	for {
		if t.keys[i].Equal(k) {
			return t.vals[i], true
		}
		if t.keys[i].IsEmpty() {
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// Put stores v for k, overwriting any existing entry. It panics on the
// empty set, which is reserved as the free-slot sentinel, and in a
// direct-indexed run on a set outside the run's n relations. A direct
// slot stores v + 1, so v must not be -1; the memo stores arena
// handles, which are never negative.
//
//dp:hotpath
func (t *Table) Put(k bitset.Set, v int32) {
	if k.IsEmpty() {
		panic("memo: empty relation set used as table key")
	}
	if len(t.direct) > 0 {
		w, ok := k.Word()
		if !ok || w >= uint64(len(t.direct)) {
			panic("memo: relation set outside the direct-indexed run")
		}
		if t.direct[w] == 0 {
			t.used++
		}
		t.direct[w] = v + 1
		return
	}
	if len(t.keys) == 0 {
		t.Reset(0)
	}
	if (t.used+1)*maxLoadDen > len(t.keys)*maxLoadNum {
		t.grow()
	}
	mask := uint(len(t.keys) - 1)
	i := uint(k.Hash()>>t.shift) & mask
	for {
		if t.keys[i].Equal(k) {
			t.vals[i] = v
			return
		}
		if t.keys[i].IsEmpty() {
			t.keys[i] = k
			t.vals[i] = v
			t.used++
			return
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table and reinserts every entry.
//
//dp:coldpath doubling growth runs O(log n) times per enumeration; the copy is amortized
func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	slots := 2 * len(oldKeys)
	t.keys = make([]bitset.Set, slots)
	t.vals = make([]int32, slots)
	t.shift = 64 - uint(bits.TrailingZeros(uint(slots)))
	t.grows++
	mask := uint(slots - 1)
	for j, k := range oldKeys {
		if k.IsEmpty() {
			continue
		}
		i := uint(k.Hash()>>t.shift) & mask
		for !t.keys[i].IsEmpty() {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}
