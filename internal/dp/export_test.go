package dp

import (
	"repro/internal/algebra"
	"repro/internal/bitset"
)

// PairEdges runs the pricing kernel of BuildPair on the pair (S1, S2),
// whose sides must have memo entries, and returns the applied edges,
// the connecting edges with their flips, the selectivity product, the
// operator and whether S1 is its left argument.
func (b *Builder) PairEdges(S1, S2 bitset.Set) (applied []int, conn []EdgeRef, sel float64, op algebra.Op, leftIsS1 bool) {
	lh, lok := b.Engine.Lookup(S1)
	rh, rok := b.Engine.Lookup(S2)
	if !lok || !rok {
		panic("dp: PairEdges without memo entries")
	}
	sel, op, leftIsS1 = b.pairEdges(S1, S2, S1.Union(S2), lh, rh)
	return b.edgeBuf, b.connBuf, sel, op, leftIsS1
}
