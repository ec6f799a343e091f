package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fromBits builds a Set from a word-0 bit pattern. Tests use it where
// they previously converted raw integers to Set.
func fromBits(raw uint64) Set {
	var s Set
	for e := 0; e < 64; e++ {
		if raw&(1<<uint(e)) != 0 {
			s = s.Add(e)
		}
	}
	return s
}

func TestNewAndMembership(t *testing.T) {
	s := New(0, 3, 5)
	for e := 0; e < MaxElems; e++ {
		want := e == 0 || e == 3 || e == 5
		if got := s.Has(e); got != want {
			t.Errorf("Has(%d) = %v, want %v", e, got, want)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := New(0, 63)
	if s.Has(-1) {
		t.Error("Has(-1) must be false")
	}
	if s.Has(64) {
		t.Error("Has(64) must be false")
	}
	if !s.Has(63) {
		t.Error("Has(63) must be true")
	}
	if s.Has(MaxElems) {
		t.Error("Has(MaxElems) must be false")
	}
}

func TestSingletonPanics(t *testing.T) {
	for _, e := range []int{-1, MaxElems, MaxElems + 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Single(%d) did not panic", e)
				}
			}()
			Single(e)
		}()
	}
}

func TestRange(t *testing.T) {
	if got := Range(2, 5); !got.Equal(New(2, 3, 4)) {
		t.Errorf("Range(2,5) = %v", got)
	}
	if got := Range(3, 3); !got.IsEmpty() {
		t.Errorf("Range(3,3) = %v, want empty", got)
	}
	if got := Full(4); !got.Equal(New(0, 1, 2, 3)) {
		t.Errorf("Full(4) = %v", got)
	}
}

var sinkSet Set

// TestRangeWords: Range fills whole words instead of adding elements one
// by one, so Full(n) allocates at most once (never up to 64), and its
// result, canonical tail included, agrees with the element-wise
// definition at and around every word boundary.
func TestRangeWords(t *testing.T) {
	for _, n := range []int{64, 65, 100, 1024} {
		limit := 1.0
		if n <= 64 {
			limit = 0
		}
		if a := testing.AllocsPerRun(20, func() { sinkSet = Full(n) }); a > limit {
			t.Errorf("Full(%d): %v allocs, want <= %v", n, a, limit)
		}
	}
	points := []int{0, 1, 63, 64, 65, 100, 127, 128, 129, 1023, 1024}
	for _, lo := range points {
		for _, hi := range points {
			if lo > hi {
				continue
			}
			var want Set
			for e := lo; e < hi; e++ {
				want = want.Add(e)
			}
			if got := Range(lo, hi); !got.Equal(want) {
				t.Errorf("Range(%d,%d) = %v, want %v", lo, hi, got, want)
			}
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(0, 1, 2)
	b := New(2, 3)
	if got := a.Union(b); !got.Equal(New(0, 1, 2, 3)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(New(2)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(New(0, 1)) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Overlaps(b) || a.Disjoint(b) {
		t.Error("a and b share element 2")
	}
	if !New(0, 1).SubsetOf(a) {
		t.Error("SubsetOf failed")
	}
	if !New(0, 1).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("ProperSubsetOf failed")
	}
}

func TestMinMaxRepresentative(t *testing.T) {
	s := New(3, 5, 9)
	if s.Min() != 3 {
		t.Errorf("Min = %d", s.Min())
	}
	if s.Max() != 9 {
		t.Errorf("Max = %d", s.Max())
	}
	if !s.MinSet().Equal(New(3)) {
		t.Errorf("MinSet = %v", s.MinSet())
	}
	if !s.MinusMin().Equal(New(5, 9)) {
		t.Errorf("MinusMin = %v", s.MinusMin())
	}
	if !Empty.MinSet().IsEmpty() {
		t.Error("MinSet(∅) must be ∅ per §2.3")
	}
	if !Empty.MinusMin().IsEmpty() {
		t.Error("MinusMin(∅) must be ∅")
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(∅) did not panic")
		}
	}()
	Empty.Min()
}

func TestBelow(t *testing.T) {
	// B_v = {w | w ≤ v} is the forbidden prefix used by Solve.
	if got := Below(0); !got.IsEmpty() {
		t.Errorf("Below(0) = %v", got)
	}
	if got := Below(3); !got.Equal(New(0, 1, 2)) {
		t.Errorf("Below(3) = %v", got)
	}
	if got := BelowEq(3); !got.Equal(New(0, 1, 2, 3)) {
		t.Errorf("BelowEq(3) = %v", got)
	}
}

func TestElemsAndForEach(t *testing.T) {
	s := New(7, 1, 4)
	want := []int{1, 4, 7}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	var seen []int
	s.ForEach(func(e int) { seen = append(seen, e) })
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 4 || seen[2] != 7 {
		t.Errorf("ForEach order = %v", seen)
	}
}

func TestNextElem(t *testing.T) {
	s := New(2, 5, 63)
	cases := []struct{ from, want int }{
		{0, 2}, {2, 2}, {3, 5}, {6, 63}, {63, 63}, {64, -1}, {-5, 2},
	}
	for _, c := range cases {
		if got := s.NextElem(c.from); got != c.want {
			t.Errorf("NextElem(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if Empty.NextElem(0) != -1 {
		t.Error("NextElem on empty set")
	}
}

func TestString(t *testing.T) {
	if got := New(0, 2).String(); got != "{R0,R2}" {
		t.Errorf("String = %q", got)
	}
	if got := Empty.String(); got != "{}" {
		t.Errorf("String(∅) = %q", got)
	}
}

// TestSubsetsExhaustive checks the Vance–Maier enumeration against an
// explicit powerset construction.
func TestSubsetsExhaustive(t *testing.T) {
	m := New(1, 3, 4, 6)
	got := Subsets(m)
	if len(got) != 15 {
		t.Fatalf("expected 15 non-empty subsets, got %d", len(got))
	}
	// Ascending numeric order, all distinct, all subsets of m, last is m.
	for i, s := range got {
		if !s.SubsetOf(m) || s.IsEmpty() {
			t.Errorf("subset %v invalid", s)
		}
		if i > 0 && !got[i-1].Less(s) {
			t.Errorf("not ascending at %d: %v >= %v", i, got[i-1], s)
		}
	}
	if !got[len(got)-1].Equal(m) {
		t.Errorf("last subset %v, want %v", got[len(got)-1], m)
	}
}

func TestProperSubsets(t *testing.T) {
	m := New(0, 2)
	got := ProperSubsets(m)
	if len(got) != 2 {
		t.Fatalf("ProperSubsets = %v", got)
	}
	for _, s := range got {
		if s.Equal(m) {
			t.Errorf("proper subsets must exclude m")
		}
	}
	if ProperSubsets(Empty) != nil {
		t.Error("ProperSubsets(∅) must be nil")
	}
	if len(ProperSubsets(New(5))) != 0 {
		t.Error("singleton has no proper non-empty subsets")
	}
}

// Property: Vance–Maier subset enumeration yields exactly 2^|m| - 1
// distinct non-empty subsets of m for arbitrary masks.
func TestSubsetEnumerationProperty(t *testing.T) {
	f := func(raw uint16) bool {
		m := fromBits(uint64(raw))
		if m.IsEmpty() {
			return len(Subsets(m)) == 0
		}
		subs := Subsets(m)
		if len(subs) != 1<<uint(m.Len())-1 {
			return false
		}
		seen := map[string]bool{}
		for _, s := range subs {
			if seen[s.Key()] || !s.SubsetOf(m) || s.IsEmpty() {
				return false
			}
			seen[s.Key()] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: set algebra satisfies De Morgan-ish laws within a universe.
func TestAlgebraProperties(t *testing.T) {
	f := func(a, b, u uint32) bool {
		U := fromBits(uint64(u))
		A, B := fromBits(uint64(a)).Intersect(U), fromBits(uint64(b)).Intersect(U)
		if A.Union(B).Len() != A.Len()+B.Len()-A.Intersect(B).Len() {
			return false // inclusion-exclusion
		}
		if !A.Minus(B).Disjoint(B) {
			return false
		}
		if !A.Minus(B).Union(A.Intersect(B)).Equal(A) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: MinSet/MinusMin partition the set.
func TestMinPartitionProperty(t *testing.T) {
	f := func(raw uint64) bool {
		s := fromBits(raw)
		if s.IsEmpty() {
			return s.MinSet().IsEmpty() && s.MinusMin().IsEmpty()
		}
		return s.MinSet().Union(s.MinusMin()).Equal(s) &&
			s.MinSet().Disjoint(s.MinusMin()) &&
			s.MinSet().IsSingleton() &&
			s.MinSet().Min() == s.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Elems is sorted ascending and round-trips through New.
func TestElemsRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := fromBits(raw)
		es := s.Elems()
		if !sort.IntsAreSorted(es) {
			return false
		}
		return New(es...).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIsSingleton(t *testing.T) {
	if Empty.IsSingleton() {
		t.Error("∅ is not a singleton")
	}
	for e := 0; e < MaxElems; e += 7 {
		if !Single(e).IsSingleton() {
			t.Errorf("Single(%d) must be a singleton", e)
		}
	}
	if New(1, 2).IsSingleton() {
		t.Error("{1,2} is not a singleton")
	}
	if New(1, 99).IsSingleton() {
		t.Error("{1,99} is not a singleton")
	}
	if New(70, 99).IsSingleton() {
		t.Error("{70,99} is not a singleton")
	}
}

func BenchmarkSubsetEnumeration(b *testing.B) {
	m := Full(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var count int
		for n := Empty.NextSubset(m); ; n = n.NextSubset(m) {
			count++
			if n.Equal(m) {
				break
			}
		}
		if count != 1<<16-1 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkSetOps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]Set, 1024)
	for i := range xs {
		xs[i] = fromBits(rng.Uint64())
	}
	b.ResetTimer()
	var acc Set
	for i := 0; i < b.N; i++ {
		s := xs[i%len(xs)]
		acc = acc.Xor(s.Union(acc).Intersect(s).MinSet())
	}
	_ = acc
}

// TestSubsetsOfMatchesSubsets: the iterator must yield exactly the
// Vance–Maier sequence Subsets returns, for every mask over a small
// universe and for random sparse masks over the full width.
func TestSubsetsOfMatchesSubsets(t *testing.T) {
	check := func(m Set) {
		want := Subsets(m)
		var got []Set
		for s := range m.SubsetsOf() {
			got = append(got, s)
		}
		if len(got) != len(want) {
			t.Fatalf("mask %v: %d subsets, want %d", m, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("mask %v: subset %d = %v, want %v", m, i, got[i], want[i])
			}
		}
	}
	for m := uint64(0); m < 1<<10; m++ {
		check(fromBits(m))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		// Sparse masks exercise the non-contiguous wrap-around carries.
		check(fromBits(rng.Uint64() & rng.Uint64() & rng.Uint64()))
	}
}

// TestSubsetsOfProperties checks the iterator invariants directly:
// count 2^|m|−1, every yield a non-empty subset of m, strictly
// ascending numeric order, m itself last.
func TestSubsetsOfProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		m := fromBits(rng.Uint64()).Intersect(Full(14)) // bounded popcount keeps 2^|m| small
		count := 0
		prev := Empty
		last := Empty
		for s := range m.SubsetsOf() {
			count++
			if s.IsEmpty() {
				t.Fatalf("mask %v yielded the empty set", m)
			}
			if !s.SubsetOf(m) {
				t.Fatalf("mask %v yielded non-subset %v", m, s)
			}
			if count > 1 && !prev.Less(s) {
				t.Fatalf("mask %v: order not ascending (%v after %v)", m, s, prev)
			}
			prev, last = s, s
		}
		if want := 1<<uint(m.Len()) - 1; count != want {
			t.Fatalf("mask %v: %d subsets, want %d", m, count, want)
		}
		if !m.IsEmpty() && !last.Equal(m) {
			t.Fatalf("mask %v: last subset %v, want the mask itself", m, last)
		}
	}
}

// TestSubsetsOfEarlyBreak: breaking out of the range must stop the
// iteration cleanly (this is what the budget-tripped solver loops do).
func TestSubsetsOfEarlyBreak(t *testing.T) {
	m := Full(16)
	n := 0
	for range m.SubsetsOf() {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("saw %d subsets after break at 10", n)
	}
	for range Empty.SubsetsOf() {
		t.Fatal("empty mask must yield nothing")
	}
}

// BenchmarkSubsetsOf measures the iterator against the hand-rolled loop
// it replaced (BenchmarkSubsetEnumeration above).
func BenchmarkSubsetsOf(b *testing.B) {
	m := Full(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var count int
		for range m.SubsetsOf() {
			count++
		}
		if count != 1<<16-1 {
			b.Fatal("bad count")
		}
	}
}
