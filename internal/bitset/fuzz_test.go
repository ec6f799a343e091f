package bitset

import (
	"math/bits"
	"testing"
)

// FuzzBitsetWidth drives random element sets across the 64/65-element
// boundary: each input describes two 128-bit patterns (a, b) plus an
// offset. The pair is evaluated twice — once as given (typically
// exercising the multi-word paths) and once with every element shifted
// down by the offset so that, whenever the patterns fit, the sets
// collapse into the single-word fast path. Shifting is a set
// isomorphism, so union, intersect, minus, the predicates, and the
// full subset enumeration must commute with it: the single-word and
// multi-word code paths have to produce identical results, element for
// element, enumeration order included.
func FuzzBitsetWidth(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint64(1), uint64(0), uint8(1))
	f.Add(uint64(1)<<63, uint64(1), uint64(1)<<63, uint64(3), uint8(1))
	f.Add(^uint64(0), uint64(0), uint64(0xF0F0), uint64(0xF), uint8(60))
	f.Add(uint64(0x8000000000000001), uint64(0x8000000000000001), uint64(3), uint64(3), uint8(63))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(7))
	f.Add(uint64(0xDEADBEEF), uint64(0xCAFE), uint64(0xBEEF), uint64(0xDEAD), uint8(32))

	f.Fuzz(func(t *testing.T, alo, ahi, blo, bhi uint64, off uint8) {
		shift := int(off % 64)

		// elemsAt decodes the two words as elements [shift, shift+128).
		elemsAt := func(lo, hi uint64, base int) []int {
			var out []int
			for w := lo; w != 0; w &= w - 1 {
				out = append(out, base+bits.TrailingZeros64(w))
			}
			for w := hi; w != 0; w &= w - 1 {
				out = append(out, base+64+bits.TrailingZeros64(w))
			}
			return out
		}
		// up sits at the offset (straddling the boundary for most
		// inputs); down is the same set translated to start at zero.
		aUp, aDown := New(elemsAt(alo, ahi, shift)...), New(elemsAt(alo, ahi, 0)...)
		bUp, bDown := New(elemsAt(blo, bhi, shift)...), New(elemsAt(blo, bhi, 0)...)

		// shiftDown translates a result of the up-universe back down.
		shiftDown := func(s Set) Set {
			out := Empty
			s.ForEach(func(e int) {
				if e < shift {
					t.Fatalf("element %d below offset %d", e, shift)
				}
				out = out.Add(e - shift)
			})
			return out
		}
		requireEqual := func(tag string, up, down Set) {
			t.Helper()
			if got := shiftDown(up); !got.Equal(down) {
				t.Fatalf("%s: wide path %v (down-shifted %v) != narrow path %v", tag, up, got, down)
			}
		}

		requireEqual("union", aUp.Union(bUp), aDown.Union(bDown))
		requireEqual("intersect", aUp.Intersect(bUp), aDown.Intersect(bDown))
		requireEqual("minus", aUp.Minus(bUp), aDown.Minus(bDown))
		requireEqual("minset", aUp.MinSet(), aDown.MinSet())
		requireEqual("minusmin", aUp.MinusMin(), aDown.MinusMin())

		for _, p := range []struct {
			tag      string
			up, down bool
		}{
			{"subsetof", aUp.SubsetOf(bUp), aDown.SubsetOf(bDown)},
			{"overlaps", aUp.Overlaps(bUp), aDown.Overlaps(bDown)},
			{"equal", aUp.Equal(bUp), aDown.Equal(bDown)},
			{"less", aUp.Less(bUp), aDown.Less(bDown)},
			{"isempty", aUp.IsEmpty(), aDown.IsEmpty()},
			{"issingleton", aUp.IsSingleton(), aDown.IsSingleton()},
		} {
			if p.up != p.down {
				t.Fatalf("%s: wide path %v != narrow path %v (a=%v b=%v shift=%d)",
					p.tag, p.up, p.down, aUp, bUp, shift)
			}
		}
		if aUp.Len() != aDown.Len() {
			t.Fatalf("len: %d != %d", aUp.Len(), aDown.Len())
		}

		// Subset enumeration must visit the same subsets in the same
		// order through both paths. Cap the mask size to keep 2^k sane.
		mask := aUp
		for mask.Len() > 12 {
			mask = mask.MinusMin()
		}
		maskDown := shiftDown(mask)
		upSubs, downSubs := Subsets(mask), Subsets(maskDown)
		if len(upSubs) != len(downSubs) {
			t.Fatalf("subset enumeration: %d vs %d subsets of %v", len(upSubs), len(downSubs), mask)
		}
		for i := range upSubs {
			if got := shiftDown(upSubs[i]); !got.Equal(downSubs[i]) {
				t.Fatalf("subset enumeration diverges at %d: %v vs %v", i, upSubs[i], downSubs[i])
			}
		}
	})
}
