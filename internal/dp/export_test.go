package dp

import (
	"repro/internal/algebra"
	"repro/internal/bitset"
)

// PairEdges runs the pricing kernel of BuildPair on the pair (S1, S2),
// whose sides must have memo entries, and returns the applied edges,
// the connecting edges with their flips, the selectivity product, the
// operator, whether S1 is its left argument and whether it was
// ambiguous.
func (b *Builder) PairEdges(S1, S2 bitset.Set) (applied []int, conn []EdgeRef, sel float64, op algebra.Op, leftIsS1, ambiguous bool) {
	lh, lok := b.Engine.Lookup(S1)
	rh, rok := b.Engine.Lookup(S2)
	if !lok || !rok {
		panic("dp: PairEdges without memo entries")
	}
	sel, op, leftIsS1, ambiguous = b.pairEdges(S1, S2, S1.Union(S2), lh, rh)
	return b.edgeBuf, b.connBuf, sel, op, leftIsS1, ambiguous
}

// AppendRowOf appends inc(S), the OR of S's relation rows, as the
// incidence row of a memo entry a test made for S outside BuildPair.
func (b *Builder) AppendRowOf(S bitset.Set) {
	row := make([]uint64, b.words)
	for r := S.NextElem(0); r >= 0; r = S.NextElem(r + 1) {
		for k, x := range b.row(int32(r)) {
			row[k] |= x
		}
	}
	b.inc = append(b.inc, row...)
}
