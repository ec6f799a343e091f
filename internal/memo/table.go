package memo

import (
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

// Table is an open-addressing hash table from non-empty bitset.Set keys
// to int32 values, specialized for the join-enumeration memo: the empty
// set is never a valid key (every memoed relation set contains at least
// one relation) and doubles as the free-slot sentinel, and deletion is
// not supported — DP tables only ever grow within a run and are cleared
// wholesale between runs. Keys hash through bitset.Hash, whose
// single-word path is one multiply, so the ≤64-relation slot sequence
// is identical to the historical packed-word Fibonacci hash; wide keys
// fold their tail words into the same 64-bit hash before slotting.
//
// Compared to a Go map this removes interface hashing, per-bucket
// overflow pointers, and tophash bookkeeping from the hottest lookup
// path of the enumeration loops. The zero Table is empty and ready to
// use.
type Table struct {
	keys  []bitset.Set // power-of-two length; the empty set marks a free slot
	vals  []int32
	used  int
	shift uint // 64 - log2(len(keys))
	grows int  // rehash count since the last Reset
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

// Reset prepares the table for a run expecting roughly hint entries. The
// backing arrays are kept when they are already large enough — but not
// more than shrinkFactor times too large — so the arena-reuse fast path
// is a memclr; otherwise they are reallocated at the next power of two
// above hint/maxLoad. The return value reports whether existing storage
// was kept.
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
	t.shift = 64 - uint(bits.TrailingZeros(uint(len(t.keys))))
	t.used = 0
	t.grows = 0
	return kept
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.used }

// Cap returns the number of slots.
func (t *Table) Cap() int { return len(t.keys) }

// Grows returns how many times the table rehashed since the last Reset.
func (t *Table) Grows() int { return t.grows }

// Get returns the value stored for k. The empty set is never stored
// (Put panics on it) and always misses — without the explicit guard it
// would match the free-slot sentinel and return a stale value.
//
//dp:hotpath
func (t *Table) Get(k bitset.Set) (int32, bool) {
	if len(t.keys) == 0 || k.IsEmpty() {
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
// empty set, which is reserved as the free-slot sentinel.
//
//dp:hotpath
func (t *Table) Put(k bitset.Set, v int32) {
	if k.IsEmpty() {
		panic("memo: empty relation set used as table key")
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

// ForEach calls f for every entry, in slot order. Unlike ranging over a
// Go map the order is deterministic for a given insertion history.
func (t *Table) ForEach(f func(k bitset.Set, v int32)) {
	for i, k := range t.keys {
		if !k.IsEmpty() {
			f(k, t.vals[i])
		}
	}
}
