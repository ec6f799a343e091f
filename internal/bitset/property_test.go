package bitset

import (
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// This file is the property wall around the multi-word widening: every
// operation is cross-checked against two independent references —
//
//   - a map[int]bool model (the set-theoretic ground truth), and
//   - the legacy single-word uint64 semantics, for any set whose
//     elements all lie below 64 (bit-for-bit compatibility with the
//     pre-widening representation),
//
// over randomized domains on both sides of the 64-element boundary plus
// exhaustive small universes. A math/big packed-value shadow pins the
// total order and the hex encoding for wide sets, where no legacy words
// exist to compare against.

// refSet is the map-based reference model.
type refSet map[int]bool

func refOf(s Set) refSet {
	r := refSet{}
	s.ForEach(func(e int) { r[e] = true })
	return r
}

func (r refSet) union(o refSet) refSet {
	out := refSet{}
	for e := range r {
		out[e] = true
	}
	for e := range o {
		out[e] = true
	}
	return out
}

func (r refSet) intersect(o refSet) refSet {
	out := refSet{}
	for e := range r {
		if o[e] {
			out[e] = true
		}
	}
	return out
}

func (r refSet) minus(o refSet) refSet {
	out := refSet{}
	for e := range r {
		if !o[e] {
			out[e] = true
		}
	}
	return out
}

func (r refSet) subsetOf(o refSet) bool {
	for e := range r {
		if !o[e] {
			return false
		}
	}
	return true
}

func (r refSet) elems() []int {
	out := make([]int, 0, len(r))
	for e := range r {
		out = append(out, e)
	}
	sort.Ints(out)
	return out
}

func (r refSet) build() Set {
	return New(r.elems()...)
}

// packed returns the set's value as a big.Int over the packed words —
// the numeric shadow defining the canonical total order and hex form.
func packed(s Set) *big.Int {
	v := new(big.Int)
	s.ForEach(func(e int) { v.SetBit(v, e, 1) })
	return v
}

// legacyWord returns the pre-widening uint64 representation, valid only
// when every element is below 64.
func legacyWord(t *testing.T, s Set) uint64 {
	t.Helper()
	var w uint64
	s.ForEach(func(e int) {
		if e >= 64 {
			t.Fatalf("legacyWord on set with element %d", e)
		}
		w |= 1 << uint(e)
	})
	return w
}

// checkCanonical asserts the representation invariant every operation
// must preserve: no tail unless an element ≥ 64 exists, and never a
// zero top word. Equal/IsEmpty/Hash/Key all rely on it.
func checkCanonical(t *testing.T, tag string, s Set) {
	t.Helper()
	if s.hi == nil {
		return
	}
	if len(s.hi) == 0 {
		t.Fatalf("%s: non-nil empty tail", tag)
	}
	if s.hi[len(s.hi)-1] == 0 {
		t.Fatalf("%s: zero top word in tail %v", tag, s.hi)
	}
}

// sampleDomains yields element-set samples spanning the boundary: all
// subsets of tiny universes, random legacy (<64) sets, straddling sets,
// and sparse wide sets.
func sampleDomains(rng *rand.Rand) [][]int {
	var out [][]int
	// Exhaustive small universes, one plain and one straddling 64.
	for _, base := range []int{0, 61} {
		for mask := 0; mask < 1<<5; mask++ {
			var elems []int
			for b := 0; b < 5; b++ {
				if mask&(1<<b) != 0 {
					elems = append(elems, base+b)
				}
			}
			out = append(out, elems)
		}
	}
	pick := func(n, lo, hi int) []int {
		seen := map[int]bool{}
		for len(seen) < n {
			seen[lo+rng.Intn(hi-lo)] = true
		}
		return refSet(seen).elems()
	}
	for i := 0; i < 40; i++ {
		out = append(out, pick(1+rng.Intn(10), 0, 64))    // legacy
		out = append(out, pick(1+rng.Intn(10), 48, 80))   // straddling
		out = append(out, pick(1+rng.Intn(12), 0, 300))   // wide sparse
		out = append(out, pick(1+rng.Intn(6), 120, 1024)) // far tail
	}
	return out
}

// TestPropertyOpsAgainstReferences: the headline model-based sweep.
func TestPropertyOpsAgainstReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	domains := sampleDomains(rng)
	sets := make([]Set, len(domains))
	for i, elems := range domains {
		sets[i] = New(elems...)
		checkCanonical(t, "New", sets[i])
	}

	for trial := 0; trial < 4000; trial++ {
		a := sets[rng.Intn(len(sets))]
		b := sets[rng.Intn(len(sets))]
		ra, rb := refOf(a), refOf(b)

		// Binary ops against the map model.
		for _, op := range []struct {
			name string
			got  Set
			want refSet
		}{
			{"Union", a.Union(b), ra.union(rb)},
			{"Intersect", a.Intersect(b), ra.intersect(rb)},
			{"Minus", a.Minus(b), ra.minus(rb)},
		} {
			checkCanonical(t, op.name, op.got)
			if !op.got.Equal(op.want.build()) {
				t.Fatalf("%v %s %v = %v, reference says %v", a, op.name, b, op.got, op.want.build())
			}
		}

		// Predicates against the map model.
		if got, want := a.SubsetOf(b), ra.subsetOf(rb); got != want {
			t.Fatalf("%v SubsetOf %v = %v, want %v", a, b, got, want)
		}
		if got, want := a.Overlaps(b), len(ra.intersect(rb)) > 0; got != want {
			t.Fatalf("%v Overlaps %v = %v, want %v", a, b, got, want)
		}
		if a.Disjoint(b) == a.Overlaps(b) {
			t.Fatalf("%v Disjoint/Overlaps %v disagree", a, b)
		}
		wantEq := ra.subsetOf(rb) && rb.subsetOf(ra)
		if a.Equal(b) != wantEq {
			t.Fatalf("%v Equal %v = %v, want %v", a, b, a.Equal(b), wantEq)
		}

		// Unary accessors against the map model.
		if a.Len() != len(ra) {
			t.Fatalf("%v Len = %d, want %d", a, a.Len(), len(ra))
		}
		if a.IsEmpty() != (len(ra) == 0) || a.IsSingleton() != (len(ra) == 1) {
			t.Fatalf("%v IsEmpty/IsSingleton wrong", a)
		}
		elems := ra.elems()
		if got := a.Elems(); !equalInts(got, elems) {
			t.Fatalf("%v Elems = %v, want %v", a, got, elems)
		}
		if len(elems) > 0 {
			if a.Min() != elems[0] || a.Max() != elems[len(elems)-1] {
				t.Fatalf("%v Min/Max = %d/%d, want %d/%d", a, a.Min(), a.Max(), elems[0], elems[len(elems)-1])
			}
			if !a.MinSet().Equal(Single(elems[0])) {
				t.Fatalf("%v MinSet = %v", a, a.MinSet())
			}
			if !a.MinusMin().Equal(New(elems[1:]...)) {
				t.Fatalf("%v MinusMin = %v", a, a.MinusMin())
			}
		} else if !a.MinSet().IsEmpty() || !a.MinusMin().IsEmpty() {
			t.Fatalf("empty set MinSet/MinusMin not empty")
		}
		for _, e := range elems {
			if !a.Has(e) {
				t.Fatalf("%v Has(%d) = false", a, e)
			}
		}
		// Add/Remove round-trips.
		e := rng.Intn(MaxElems)
		added := a.Add(e)
		checkCanonical(t, "Add", added)
		if !added.Has(e) || added.Len() != len(ra.union(refSet{e: true})) {
			t.Fatalf("%v Add(%d) = %v", a, e, added)
		}
		removed := added.Remove(e)
		checkCanonical(t, "Remove", removed)
		if !removed.Equal(a.Remove(e)) || removed.Has(e) {
			t.Fatalf("%v Add(%d).Remove(%d) = %v", a, e, e, removed)
		}

		// NextElem walks exactly the element list.
		var walked []int
		for e := a.NextElem(0); e >= 0; e = a.NextElem(e + 1) {
			walked = append(walked, e)
		}
		if !equalInts(walked, elems) {
			t.Fatalf("%v NextElem walk = %v, want %v", a, walked, elems)
		}
		if len(elems) > 0 {
			mid := elems[rng.Intn(len(elems))]
			if got := a.NextElem(mid); got != mid {
				t.Fatalf("%v NextElem(%d) = %d, want %d", a, mid, got, mid)
			}
		}

		// Total order, hex, hash, key: big.Int shadow.
		pa, pb := packed(a), packed(b)
		if got, want := a.Less(b), pa.Cmp(pb) < 0; got != want {
			t.Fatalf("%v Less %v = %v, packed-value order says %v", a, b, got, want)
		}
		if gotHex, wantHex := string(a.AppendHex(nil)), pa.Text(16); gotHex != wantHex {
			t.Fatalf("%v AppendHex = %q, want %q", a, gotHex, wantHex)
		}
		if a.Equal(b) && (a.Hash() != b.Hash() || a.Key() != b.Key()) {
			t.Fatalf("%v: equal sets with different Hash/Key", a)
		}
		if !a.Equal(b) && a.Key() == b.Key() {
			t.Fatalf("%v vs %v: distinct sets share a Key", a, b)
		}

		// Legacy single-word shadow: for sets entirely below 64 the new
		// code must agree with the historical uint64 semantics exactly.
		if (len(elems) == 0 || elems[len(elems)-1] < 64) && (b.IsEmpty() || b.Max() < 64) {
			wa, wb := legacyWord(t, a), legacyWord(t, b)
			checkLegacy(t, a, b, wa, wb)
		}
	}
}

// checkLegacy pins the pre-widening uint64 semantics for sub-64 sets.
func checkLegacy(t *testing.T, a, b Set, wa, wb uint64) {
	t.Helper()
	for _, op := range []struct {
		name string
		got  Set
		want uint64
	}{
		{"Union", a.Union(b), wa | wb},
		{"Intersect", a.Intersect(b), wa & wb},
		{"Minus", a.Minus(b), wa &^ wb},
		{"MinSet", a.MinSet(), wa & -wa},
		{"MinusMin", a.MinusMin(), wa & (wa - 1)},
		{"NextSubset", a.Intersect(b).NextSubset(b), (wa&wb - wb) & wb},
	} {
		if got := legacyWord(t, op.got); got != op.want {
			t.Fatalf("legacy %s: %v op %v = %#x, want %#x", op.name, a, b, got, op.want)
		}
	}
	if a.Less(b) != (wa < wb) {
		t.Fatalf("legacy Less: %v vs %v disagrees with word order", a, b)
	}
	if a.Equal(b) != (wa == wb) {
		t.Fatalf("legacy Equal: %v vs %v disagrees with word equality", a, b)
	}
	if a.SubsetOf(b) != (wa&^wb == 0) {
		t.Fatalf("legacy SubsetOf: %v vs %v", a, b)
	}
	if a.Hash() != wa*fibMul {
		t.Fatalf("legacy Hash: %v = %#x, want Fibonacci hash %#x", a, a.Hash(), wa*fibMul)
	}
	if got, want := string(a.AppendHex(nil)), strconv.FormatUint(wa, 16); got != want {
		t.Fatalf("legacy AppendHex: %v = %q, want %q", a, got, want)
	}
}

// TestPropertySubsetEnumeration: SubsetsOf yields exactly the non-empty
// subsets, in strictly increasing packed-value (Less) order, ending
// with the mask — on both sides of the boundary.
func TestPropertySubsetEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	masks := []Set{
		New(0, 1, 2),
		New(5, 17, 40, 63),
		New(62, 63, 64, 65), // straddles the word boundary
		New(1, 63, 64, 127, 128),
		New(200, 300, 400),
	}
	for i := 0; i < 10; i++ {
		var elems []int
		for len(elems) < 2+rng.Intn(9) {
			elems = append(elems, rng.Intn(140))
		}
		masks = append(masks, New(elems...))
	}
	for _, m := range masks {
		k := m.Len()
		want := 1<<uint(k) - 1
		var got []Set
		for s := range m.SubsetsOf() {
			got = append(got, s)
		}
		if len(got) != want {
			t.Fatalf("%v: %d subsets, want %d", m, len(got), want)
		}
		seen := map[string]bool{}
		for i, s := range got {
			checkCanonical(t, "subset", s)
			if s.IsEmpty() || !s.SubsetOf(m) {
				t.Fatalf("%v: yielded non-subset %v", m, s)
			}
			if seen[s.Key()] {
				t.Fatalf("%v: duplicate subset %v", m, s)
			}
			seen[s.Key()] = true
			if i > 0 && !got[i-1].Less(s) {
				t.Fatalf("%v: order violation at %d: %v !< %v", m, i, got[i-1], s)
			}
		}
		if !got[len(got)-1].Equal(m) {
			t.Fatalf("%v: last subset %v is not the mask", m, got[len(got)-1])
		}
		// Subsets agrees with the iterator.
		if subs := Subsets(m); len(subs) != len(got) {
			t.Fatalf("%v: Subsets len %d != iterator %d", m, len(subs), len(got))
		}
		// Early break is honored.
		n := 0
		for range m.SubsetsOf() {
			n++
			if n == 2 {
				break
			}
		}
		if n != 2 {
			t.Fatalf("%v: early break yielded %d", m, n)
		}
	}
}

// TestPropertyLessTotalOrder: irreflexivity, trichotomy, transitivity
// on random triples spanning the boundary.
func TestPropertyLessTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	domains := sampleDomains(rng)
	pickSet := func() Set { return New(domains[rng.Intn(len(domains))]...) }
	for i := 0; i < 3000; i++ {
		a, b, c := pickSet(), pickSet(), pickSet()
		if a.Less(a) {
			t.Fatalf("%v Less itself", a)
		}
		lt, gt, eq := a.Less(b), b.Less(a), a.Equal(b)
		if (lt && gt) || (lt && eq) || (gt && eq) || (!lt && !gt && !eq) {
			t.Fatalf("trichotomy violated for %v vs %v: lt=%v gt=%v eq=%v", a, b, lt, gt, eq)
		}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			t.Fatalf("transitivity violated: %v < %v < %v but not %v < %v", a, b, c, a, c)
		}
	}
}

// TestPropertyRangeBuilders: Range/Below/BelowEq/Full against the model.
func TestPropertyRangeBuilders(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{
		{0, 0}, {0, 5}, {3, 9}, {0, 64}, {60, 70}, {63, 65}, {64, 64}, {64, 130}, {100, 200},
	} {
		want := refSet{}
		for e := tc.lo; e < tc.hi; e++ {
			want[e] = true
		}
		got := Range(tc.lo, tc.hi)
		checkCanonical(t, "Range", got)
		if !got.Equal(want.build()) || got.Len() != len(want) {
			t.Fatalf("Range(%d,%d) = %v", tc.lo, tc.hi, got)
		}
	}
	for _, e := range []int{0, 1, 63, 64, 65, 200} {
		if !Below(e).Equal(Range(0, e)) {
			t.Fatalf("Below(%d) != Range(0,%d)", e, e)
		}
		if !BelowEq(e).Equal(Range(0, e+1)) {
			t.Fatalf("BelowEq(%d) != Range(0,%d)", e, e+1)
		}
		if !Full(e).Equal(Below(e)) {
			t.Fatalf("Full(%d) != Below(%d)", e, e)
		}
		if !Single(e).Equal(New(e)) || Single(e).Min() != e || !Single(e).IsSingleton() {
			t.Fatalf("Single(%d) malformed", e)
		}
	}
}

// TestPropertyHashMixing: a quick avalanche sanity — distinct sets in a
// dense straddling family rarely collide after the table shift.
func TestPropertyHashMixing(t *testing.T) {
	seen := map[uint64]string{}
	collisions := 0
	total := 0
	for lo := 0; lo < 64; lo += 3 {
		for hi := 64; hi < 192; hi += 5 {
			s := New(lo, hi, hi/2)
			h := s.Hash() >> 48 // 16-bit slot index, as a small memo table would use
			if prev, ok := seen[h]; ok && prev != s.Key() {
				collisions++
			}
			seen[h] = s.Key()
			total++
		}
	}
	if collisions > total/4 {
		t.Fatalf("excessive slot collisions: %d of %d", collisions, total)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
