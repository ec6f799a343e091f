// Package bitset implements sets of relation indices.
//
// Join enumeration algorithms manipulate sets of relations at very high
// frequency: membership tests, unions, neighborhood masks, and — most
// importantly — enumeration of all subsets of a set. Following Vance and
// Maier ("Rapid bushy join-order optimization with Cartesian products",
// SIGMOD 1996), a set of up to 64 relations is represented as a single
// uint64 so that all of these operations are a handful of machine
// instructions. The DPhyp paper (Moerkotte & Neumann, SIGMOD 2008)
// explicitly builds on this representation: "Since we want to use the fast
// subset enumeration procedure introduced by Vance and Maier, we must have
// a single bit representing a hypernode" (§2.3).
//
// This package breaks the 64-relation ceiling that representation
// implies while keeping the Vance–Maier speed where it matters: a Set is
// a single machine word plus an extension tail that stays nil for every
// set whose elements are all below 64. The enumeration loops of the
// exact solvers only ever see sub-64-relation subproblems (the
// large-query tier compresses bigger graphs first), so their hot paths
// compile down to the same handful of instructions as before; sets with
// elements ≥ 64 transparently grow a []uint64 tail and every operation —
// including Gosper same-size stepping and Vance–Maier subset
// enumeration — works across words.
//
// Sets are values; all operations return new sets, and a Set's words are
// never mutated after construction, so Sets may be freely shared across
// goroutines. The zero value is the empty set. The representation is
// canonical (the tail is nil unless the set has an element ≥ 64, and
// never ends in a zero word), which makes Equal a plain word comparison.
// Set is deliberately NOT comparable with ==: compare with Equal, order
// with Less, and key maps with Key. No code outside this package may
// assume the word count or index words directly (the bitsetwidth
// analyzer guards the operator half of that invariant).
package bitset

import (
	"fmt"
	"iter"
	"math/bits"
	"strconv"
	"strings"
)

// MaxElems is the largest number of distinct elements a Set can hold.
// Element indices must lie in [0, MaxElems). The bound exists to catch
// runaway indices, not to size anything: sets below 64 elements cost one
// machine word, larger ones one word per started 64 elements.
const MaxElems = 1024

// wordBits is the number of elements per word.
const wordBits = 64

// Set is a set of small non-negative integers (relation indices). Bit i
// of the packed words is set iff element i is a member: lo holds
// elements 0..63, hi[w] holds elements 64(w+1)..64(w+2)-1.
//
// Invariant (canonical form): hi is nil when every element is below 64,
// and hi never ends in a zero word. Every exported operation preserves
// the invariant, so sets representing the same elements are wordwise
// identical and Equal needs no normalization. The hi tail is immutable
// once attached to a Set; operations allocate fresh tails, never write
// through shared ones.
type Set struct {
	lo uint64
	hi []uint64
}

// Empty is the empty set.
var Empty Set

// trim drops trailing zero words so the representation stays canonical.
// The argument slice is owned by the caller (freshly allocated).
func trim(hi []uint64) []uint64 {
	n := len(hi)
	for n > 0 && hi[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return hi[:n]
}

// wide builds a canonical Set from a low word and a caller-owned tail.
func wide(lo uint64, hi []uint64) Set {
	return Set{lo: lo, hi: trim(hi)}
}

// word returns the w-th 64-bit word of s (word 0 is lo).
func (s Set) word(w int) uint64 {
	if w == 0 {
		return s.lo
	}
	if w-1 < len(s.hi) {
		return s.hi[w-1]
	}
	return 0
}

// words returns the number of words the canonical representation uses.
func (s Set) words() int { return 1 + len(s.hi) }

// New returns a set containing the given elements.
// It panics if any element is outside [0, MaxElems).
func New(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s = s.Add(e)
	}
	return s
}

// Single returns the singleton set {e}.
func Single(e int) Set {
	if e < 0 || e >= MaxElems {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, MaxElems))
	}
	if e < wordBits {
		return Set{lo: 1 << uint(e)}
	}
	return singleWide(e)
}

// singleWide builds the singleton {e} for e ≥ 64.
//
//dp:coldpath only sets with elements ≥ 64 allocate a tail; the ≤64-relation hot path never enters the wide branches
func singleWide(e int) Set {
	hi := make([]uint64, e/wordBits)
	hi[e/wordBits-1] = 1 << uint(e%wordBits)
	return Set{hi: hi}
}

// Range returns the set {lo, lo+1, ..., hi-1}. Range(a, a) is empty.
// The words are filled directly: at most one allocation, for the tail.
func Range(lo, hi int) Set {
	if lo < 0 || hi > MaxElems || lo > hi {
		panic(fmt.Sprintf("bitset: invalid range [%d,%d)", lo, hi))
	}
	if hi <= wordBits || lo == hi {
		return Set{lo: wordRange(lo, hi)}
	}
	return rangeWide(lo, hi)
}

// rangeWide builds Range(lo, hi) for hi > 64.
//
//dp:coldpath only ranges reaching element 64 allocate a tail; the ≤64-relation hot path never enters the wide branches
func rangeWide(lo, hi int) Set {
	hiWords := make([]uint64, (hi-1)/wordBits)
	for i := range hiWords {
		base := (i + 1) * wordBits
		hiWords[i] = wordRange(lo-base, hi-base)
	}
	return wide(wordRange(lo, hi), hiWords)
}

// wordRange returns the word with bits [a, b) set, both ends clamped to
// [0, 64].
func wordRange(a, b int) uint64 {
	a, b = max(a, 0), min(b, wordBits)
	if a >= b {
		return 0
	}
	return ^uint64(0) >> uint(wordBits-(b-a)) << uint(a)
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set { return Range(0, n) }

// Add returns s ∪ {e}.
func (s Set) Add(e int) Set {
	if e >= 0 && e < wordBits && s.hi == nil {
		return Set{lo: s.lo | 1<<uint(e)}
	}
	return s.Union(Single(e))
}

// Remove returns s ∖ {e}.
func (s Set) Remove(e int) Set {
	if e >= 0 && e < wordBits && s.hi == nil {
		return Set{lo: s.lo &^ (1 << uint(e))}
	}
	return s.Minus(Single(e))
}

// Has reports whether e ∈ s.
func (s Set) Has(e int) bool {
	if e < 0 || e >= MaxElems {
		return false
	}
	if e < wordBits {
		return s.lo&(1<<uint(e)) != 0
	}
	w := e/wordBits - 1
	return w < len(s.hi) && s.hi[w]&(1<<uint(e%wordBits)) != 0
}

// Equal reports whether s and t contain the same elements. Set is not
// comparable with ==; this is the equality test.
//
//dp:hotpath
func (s Set) Equal(t Set) bool {
	if s.hi == nil && t.hi == nil {
		return s.lo == t.lo
	}
	return s.equalWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) equalWide(t Set) bool {
	if s.lo != t.lo || len(s.hi) != len(t.hi) {
		return false
	}
	for i, w := range s.hi {
		if t.hi[i] != w {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
//
//dp:hotpath
func (s Set) Union(t Set) Set {
	if s.hi == nil && t.hi == nil {
		return Set{lo: s.lo | t.lo}
	}
	return s.unionWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) unionWide(t Set) Set {
	if len(t.hi) > len(s.hi) {
		s, t = t, s
	}
	hi := make([]uint64, len(s.hi))
	copy(hi, s.hi)
	for i, w := range t.hi {
		hi[i] |= w
	}
	// The longer canonical tail keeps its non-zero top word: no trim.
	return Set{lo: s.lo | t.lo, hi: hi}
}

// Intersect returns s ∩ t.
//
//dp:hotpath
func (s Set) Intersect(t Set) Set {
	if s.hi == nil && t.hi == nil {
		return Set{lo: s.lo & t.lo}
	}
	return s.intersectWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) intersectWide(t Set) Set {
	n := min(len(s.hi), len(t.hi))
	if n == 0 {
		return Set{lo: s.lo & t.lo}
	}
	hi := make([]uint64, n)
	for i := range hi {
		hi[i] = s.hi[i] & t.hi[i]
	}
	return wide(s.lo&t.lo, hi)
}

// Minus returns s ∖ t.
//
//dp:hotpath
func (s Set) Minus(t Set) Set {
	if s.hi == nil && t.hi == nil {
		return Set{lo: s.lo &^ t.lo}
	}
	return s.minusWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) minusWide(t Set) Set {
	if len(s.hi) == 0 {
		return Set{lo: s.lo &^ t.lo}
	}
	hi := make([]uint64, len(s.hi))
	for i, w := range s.hi {
		if i < len(t.hi) {
			w &^= t.hi[i]
		}
		hi[i] = w
	}
	return wide(s.lo&^t.lo, hi)
}

// IsEmpty reports whether s = ∅. Canonical form makes this a single
// word test: a set with a tail always has an element ≥ 64.
//
//dp:hotpath
func (s Set) IsEmpty() bool { return s.lo == 0 && s.hi == nil }

// Len returns |s|.
func (s Set) Len() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether s ⊆ t.
//
//dp:hotpath
func (s Set) SubsetOf(t Set) bool {
	if s.hi == nil {
		return s.lo&^t.lo == 0
	}
	return s.subsetOfWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) subsetOfWide(t Set) bool {
	if s.lo&^t.lo != 0 || len(s.hi) > len(t.hi) {
		return false
	}
	for i, w := range s.hi {
		if w&^t.hi[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t (subset and not equal).
func (s Set) ProperSubsetOf(t Set) bool { return s.SubsetOf(t) && !s.Equal(t) }

// Less reports whether s precedes t in the canonical total order on
// sets: numeric order of the packed words (the order Vance–Maier subset
// enumeration yields subsets in). All code outside this package must
// compare sets with Less / Equal rather than raw words so that the
// ordering is independent of the representation width.
//
//dp:hotpath
func (s Set) Less(t Set) bool {
	if s.hi == nil && t.hi == nil {
		return s.lo < t.lo
	}
	return s.lessWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) lessWide(t Set) bool {
	// Canonical form: a longer tail means a larger top element, hence a
	// larger packed value.
	if len(s.hi) != len(t.hi) {
		return len(s.hi) < len(t.hi)
	}
	for i := len(s.hi) - 1; i >= 0; i-- {
		if s.hi[i] != t.hi[i] {
			return s.hi[i] < t.hi[i]
		}
	}
	return s.lo < t.lo
}

// Disjoint reports whether s ∩ t = ∅.
//
//dp:hotpath
func (s Set) Disjoint(t Set) bool { return !s.Overlaps(t) }

// Overlaps reports whether s ∩ t ≠ ∅.
//
//dp:hotpath
func (s Set) Overlaps(t Set) bool {
	if s.lo&t.lo != 0 {
		return true
	}
	if s.hi == nil || t.hi == nil {
		return false
	}
	return s.overlapsWide(t)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) overlapsWide(t Set) bool {
	n := min(len(s.hi), len(t.hi))
	for i := 0; i < n; i++ {
		if s.hi[i]&t.hi[i] != 0 {
			return true
		}
	}
	return false
}

// IsSingleton reports whether |s| = 1.
func (s Set) IsSingleton() bool {
	if s.hi == nil {
		return s.lo != 0 && s.lo&(s.lo-1) == 0
	}
	if s.lo != 0 {
		return false
	}
	for i, w := range s.hi {
		if w != 0 {
			return i == len(s.hi)-1 && w&(w-1) == 0
		}
	}
	return false
}

// Min returns the smallest element of s. This is the representative node
// min(S) used throughout the DPhyp paper (§2.3). It panics on the empty
// set; use MinSet for the set-valued variant that maps ∅ to ∅.
func (s Set) Min() int {
	if s.lo != 0 {
		return bits.TrailingZeros64(s.lo)
	}
	for i, w := range s.hi {
		if w != 0 {
			return (i+1)*wordBits + bits.TrailingZeros64(w)
		}
	}
	panic("bitset: Min of empty set")
}

// MinSet returns min(S) as a set: the singleton holding the smallest
// element, or the empty set if s is empty (Definition of min in §2.3).
//
//dp:hotpath
func (s Set) MinSet() Set {
	if s.lo != 0 || s.hi == nil {
		return Set{lo: s.lo & -s.lo}
	}
	return s.minSetWide()
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) minSetWide() Set {
	for i, w := range s.hi {
		if w != 0 {
			hi := make([]uint64, i+1)
			hi[i] = w & -w
			return Set{hi: hi}
		}
	}
	return Empty
}

// MinusMin returns s ∖ min(s): every element except the representative.
// This is the min̄(S) = S ∖ min(S) of §2.3. For the empty set it returns
// the empty set.
//
//dp:hotpath
func (s Set) MinusMin() Set {
	if s.hi == nil {
		return Set{lo: s.lo & (s.lo - 1)}
	}
	return s.minusMinWide()
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) minusMinWide() Set {
	if s.lo != 0 {
		hi := make([]uint64, len(s.hi))
		copy(hi, s.hi)
		return Set{lo: s.lo & (s.lo - 1), hi: hi}
	}
	hi := make([]uint64, len(s.hi))
	copy(hi, s.hi)
	for i, w := range hi {
		if w != 0 {
			hi[i] = w & (w - 1)
			break
		}
	}
	return wide(0, hi)
}

// Max returns the largest element of s. It panics on the empty set.
func (s Set) Max() int {
	if s.hi != nil {
		// Canonical: the last word is non-zero.
		w := len(s.hi) - 1
		return (w+1)*wordBits + 63 - bits.LeadingZeros64(s.hi[w])
	}
	if s.lo == 0 {
		panic("bitset: Max of empty set")
	}
	return 63 - bits.LeadingZeros64(s.lo)
}

// Below returns the set {w | w < e}: all elements strictly ordered before
// e. Combined with Add(e) this yields the B_v = {w | w ≤ v} sets used by
// Solve and EmitCsg for duplicate avoidance.
func Below(e int) Set {
	if e < 0 || e >= MaxElems {
		panic(fmt.Sprintf("bitset: element %d out of range [0,%d)", e, MaxElems))
	}
	if e < wordBits {
		return Set{lo: 1<<uint(e) - 1}
	}
	return belowWide(e)
}

//dp:coldpath only elements ≥ 64 build a tail; the ≤64-relation hot path never enters the wide branches
func belowWide(e int) Set {
	hi := make([]uint64, e/wordBits)
	for i := 0; i < e/wordBits-1; i++ {
		hi[i] = ^uint64(0)
	}
	hi[e/wordBits-1] = 1<<uint(e%wordBits) - 1
	return wide(^uint64(0), hi)
}

// BelowEq returns B_e = {w | w ≤ e}.
func BelowEq(e int) Set { return Below(e).Add(e) }

// Elems returns the elements of s in ascending order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// ForEach calls f for every element of s in ascending order.
func (s Set) ForEach(f func(e int)) {
	for t := s.lo; t != 0; t &= t - 1 {
		f(bits.TrailingZeros64(t))
	}
	for i, w := range s.hi {
		for t := w; t != 0; t &= t - 1 {
			f((i+1)*wordBits + bits.TrailingZeros64(t))
		}
	}
}

// NextElem returns the smallest element of s that is ≥ from, or -1 if
// there is none. It enables allocation-free iteration:
//
//	for e := s.NextElem(0); e >= 0; e = s.NextElem(e + 1) { ... }
//
//dp:hotpath
func (s Set) NextElem(from int) int {
	if from < 0 {
		from = 0
	}
	if from < wordBits {
		if t := s.lo &^ (1<<uint(from) - 1); t != 0 {
			return bits.TrailingZeros64(t)
		}
		from = wordBits
	}
	if s.hi == nil {
		return -1
	}
	return s.nextElemWide(from)
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) nextElemWide(from int) int {
	if from >= MaxElems {
		return -1
	}
	w := from/wordBits - 1
	if w < len(s.hi) {
		if t := s.hi[w] &^ (1<<uint(from%wordBits) - 1); t != 0 {
			return (w+1)*wordBits + bits.TrailingZeros64(t)
		}
	}
	for w++; w < len(s.hi); w++ {
		if s.hi[w] != 0 {
			return (w+1)*wordBits + bits.TrailingZeros64(s.hi[w])
		}
	}
	return -1
}

// NextSameSize returns the successor of s in Less order among sets of
// the same cardinality (Gosper's hack). Iterating from Full(k) yields
// every k-subset in canonical order; the result exceeds any universe
// that has been exhausted, which callers detect with Less. It panics
// on the empty set (the hack divides by the lowest set bit).
//
//dp:hotpath
func (s Set) NextSameSize() Set {
	if s.hi == nil {
		if s.lo == 0 {
			panic("bitset: NextSameSize on empty set")
		}
		c := s.lo & -s.lo
		r := s.lo + c
		if r != 0 {
			return Set{lo: r | ((s.lo^r)>>2)>>uint(bits.TrailingZeros64(c))}
		}
		// The lowest block of ones reaches bit 63: the carry leaves the
		// word. Fall through to the multi-word stepper, which propagates
		// it into a fresh tail word.
	}
	return s.nextSameSizeWide()
}

// nextSameSizeWide is Gosper's hack across words: r = s + c (c the
// lowest set bit), then the shifted-down block of changed low ones is
// OR-ed back in. Each step is O(words).
//
//dp:coldpath only sets with elements ≥ 64 (or a carry out of word 0) reach the multi-word stepper; the ≤64-relation hot path never enters the wide branches
func (s Set) nextSameSizeWide() Set {
	if s.IsEmpty() {
		panic("bitset: NextSameSize on empty set")
	}
	low := s.Min()
	// r = s + (1 << low), rippling the carry across words.
	words := s.words()
	r := make([]uint64, words+1) // room for a carry into a new word
	for i := 0; i < words; i++ {
		r[i] = s.word(i)
	}
	carry := uint64(1) << uint(low%wordBits)
	for i := low / wordBits; carry != 0 && i < len(r); i++ {
		sum, c := bits.Add64(r[i], carry, 0)
		r[i], carry = sum, c
	}
	// The block of ones that carried out of s spans bits [low, top) where
	// top is the first position ≥ low that is now set in r... equivalently
	// (s ^ r) marks exactly the changed bits; the hack keeps
	// (changed >> (2 + low)) of them as the new low block.
	res := wide(r[0], r[1:])
	changed := s.Xor(res)
	return res.Union(changed.rsh(2 + low))
}

// Xor returns the symmetric difference s △ t. It is used by the
// multi-word Gosper stepper and exposed for completeness.
func (s Set) Xor(t Set) Set {
	if s.hi == nil && t.hi == nil {
		return Set{lo: s.lo ^ t.lo}
	}
	if len(t.hi) > len(s.hi) {
		s, t = t, s
	}
	hi := make([]uint64, len(s.hi))
	copy(hi, s.hi)
	for i, w := range t.hi {
		hi[i] ^= w
	}
	return wide(s.lo^t.lo, hi)
}

// rsh returns s with every element shifted down by n (elements below n
// are dropped).
func (s Set) rsh(n int) Set {
	if n == 0 {
		return s
	}
	if s.hi == nil {
		if n >= wordBits {
			return Empty
		}
		return Set{lo: s.lo >> uint(n)}
	}
	words := s.words()
	drop := n / wordBits
	sh := uint(n % wordBits)
	out := make([]uint64, words) // out[i] = word i of the result
	for i := 0; i+drop < words; i++ {
		w := s.word(i+drop) >> sh
		if sh != 0 && i+drop+1 < words {
			w |= s.word(i+drop+1) << (wordBits - sh)
		}
		out[i] = w
	}
	return wide(out[0], out[1:])
}

// NextSubset returns the next non-empty subset of m after s in the
// Vance–Maier enumeration order, which visits all non-empty subsets of m
// in increasing numeric value of their bit patterns, ending with m itself.
// The iteration protocol is:
//
//	for n := Empty.NextSubset(m); ; n = n.NextSubset(m) {
//	    ...use n...
//	    if n.Equal(m) { break }
//	}
//
// Starting from the empty set it yields the first (numerically smallest)
// non-empty subset. After s.Equal(m) it wraps to the empty set.
//
//dp:hotpath
func (s Set) NextSubset(m Set) Set {
	if s.hi == nil && m.hi == nil {
		return Set{lo: (s.lo - m.lo) & m.lo}
	}
	return s.nextSubsetWide(m)
}

// nextSubsetWide is the Vance–Maier step (s − m) & m with a multi-word
// borrow-rippling subtraction.
//
//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) nextSubsetWide(m Set) Set {
	words := m.words()
	if s.words() > words {
		panic("bitset: NextSubset state is not a subset of the mask")
	}
	out := make([]uint64, words)
	var borrow uint64
	for i := 0; i < words; i++ {
		d, b := bits.Sub64(s.word(i), m.word(i), borrow)
		out[i], borrow = d&m.word(i), b
	}
	return wide(out[0], out[1:])
}

// SubsetsOf returns an iterator over all non-empty subsets of m in
// Vance–Maier order (ascending numeric bit-pattern value, ending with m
// itself). It packages the (s − m) & m enumeration step so that the
// enumeration loops of DPsub and DPccp read as plain range statements
// instead of hand-rolled wrap-around loops:
//
//	for s := range m.SubsetsOf() { ... }
//
// The iterator is allocation-free on single-word sets and supports early
// break. An empty m yields nothing.
func (m Set) SubsetsOf() iter.Seq[Set] {
	//nolint:hotpathalloc // one iterator closure per enumeration loop, amortized over its 2^|m| yields
	return func(yield func(Set) bool) {
		if m.IsEmpty() {
			return
		}
		for s := Empty.NextSubset(m); ; s = s.NextSubset(m) {
			if !yield(s) || s.Equal(m) {
				return
			}
		}
	}
}

// Subsets returns all non-empty subsets of m in Vance–Maier order.
// Intended for tests and small sets; hot paths should use NextSubset.
func Subsets(m Set) []Set {
	if m.IsEmpty() {
		return nil
	}
	out := make([]Set, 0, 1<<uint(m.Len())-1)
	for n := Empty.NextSubset(m); ; n = n.NextSubset(m) {
		out = append(out, n)
		if n.Equal(m) {
			break
		}
	}
	return out
}

// ProperSubsets returns all non-empty proper subsets of m (excludes m).
func ProperSubsets(m Set) []Set {
	subs := Subsets(m)
	if len(subs) == 0 {
		return nil
	}
	return subs[:len(subs)-1] // m is always last in Vance–Maier order
}

// AppendHex appends the set's canonical hexadecimal form to b and
// returns the extended slice, for fingerprint/cache-key construction
// without exposing the word width at call sites. The form is the hex of
// the packed big-endian value with no leading zeros, so it is identical
// for equal sets regardless of how they were built, and matches the
// historical single-word encoding for sets below 64 elements.
func (s Set) AppendHex(b []byte) []byte {
	if s.hi == nil {
		return strconv.AppendUint(b, s.lo, 16)
	}
	// Canonical: top word non-zero, printed without padding; lower words
	// zero-padded to 16 digits.
	b = strconv.AppendUint(b, s.hi[len(s.hi)-1], 16)
	for i := len(s.hi) - 2; i >= 0; i-- {
		b = appendHexPadded(b, s.hi[i])
	}
	return appendHexPadded(b, s.lo)
}

func appendHexPadded(b []byte, w uint64) []byte {
	for sh := 60; sh >= 0; sh -= 4 {
		b = append(b, "0123456789abcdef"[w>>uint(sh)&0xf])
	}
	return b
}

// Key returns a canonical string key for s, for use as a Go map key
// (Set itself is not comparable). The encoding is private to this
// package; treat it as opaque bytes.
func (s Set) Key() string {
	if s.hi == nil {
		var b [8]byte
		for i := range b {
			b[i] = byte(s.lo >> (8 * i))
		}
		return string(b[:])
	}
	b := make([]byte, 8*s.words())
	for w := 0; w < s.words(); w++ {
		v := s.word(w)
		for i := 0; i < 8; i++ {
			b[8*w+i] = byte(v >> (8 * i))
		}
	}
	return string(b)
}

// fibMul is the 64-bit Fibonacci-hashing multiplier (2^64 divided by the
// golden ratio, rounded to odd). Relation-set keys are heavily clustered
// in their low bits — enumeration visits {R0}, {R0,R1}, {R0,R1,R2}, … —
// and multiplying by this constant spreads that low-bit entropy across
// the high bits, which open-addressing tables shift down to index slots.
const fibMul = 0x9E3779B97F4A7C15

// Hash returns a 64-bit hash of s whose high bits are well mixed, for
// open-addressing tables that index by hash >> shift (internal/memo).
// For single-word sets it is exactly the historical Fibonacci hash of
// the packed word, so the ≤64-relation memo slot sequence — and with it
// the hot-path probe behavior — is unchanged by the multi-word widening.
//
//dp:hotpath
func (s Set) Hash() uint64 {
	if s.hi == nil {
		return s.lo * fibMul
	}
	return s.hashWide()
}

//dp:coldpath only sets with elements ≥ 64 have a tail; the ≤64-relation hot path never enters the wide branches
func (s Set) hashWide() uint64 {
	h := s.lo * fibMul
	for _, w := range s.hi {
		h = (h ^ (w * fibMul)) * fibMul
	}
	return h
}

// String renders the set as {R0,R3,R5} style for debugging.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "R%d", e)
	})
	b.WriteByte('}')
	return b.String()
}
