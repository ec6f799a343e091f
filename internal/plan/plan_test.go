package plan

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

func leftDeep3() *Node {
	l0 := Leaf(0, 100)
	l1 := Leaf(1, 200)
	l2 := Leaf(2, 300)
	j1 := Join(algebra.Join, l0, l1, []int{0}, 50, 50)
	return Join(algebra.LeftOuter, j1, l2, []int{1}, 60, 110)
}

func TestLeaf(t *testing.T) {
	l := Leaf(3, 42)
	if !l.IsLeaf() || l.Rel != 3 || l.Card != 42 || l.Cost != 0 {
		t.Errorf("leaf = %+v", l)
	}
	if !l.Rels.Equal(bitset.Single(3)) {
		t.Errorf("leaf rels = %v", l.Rels)
	}
	if l.Joins() != 0 || l.Relations() != 1 || l.Depth() != 1 {
		t.Error("leaf metrics")
	}
}

func TestJoinNode(t *testing.T) {
	p := leftDeep3()
	if p.IsLeaf() {
		t.Fatal("join is not a leaf")
	}
	if !p.Rels.Equal(bitset.New(0, 1, 2)) {
		t.Errorf("rels = %v", p.Rels)
	}
	if p.Joins() != 2 || p.Relations() != 3 || p.Depth() != 3 {
		t.Errorf("metrics: joins=%d rels=%d depth=%d", p.Joins(), p.Relations(), p.Depth())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestUnpackSlab: Unpack builds a fresh tree in two allocations, and
// appending to one node's Edges cannot reach the node unpacked after
// it.
func TestUnpackSlab(t *testing.T) {
	p := leftDeep3()
	packed := Pack(p)
	c := packed.Unpack()
	if c.String() != p.String() || c.Left == p.Left {
		t.Fatalf("unpacked tree differs from or shares nodes with the original:\n%s\n%s", c, p)
	}
	if a := testing.AllocsPerRun(20, func() { c = packed.Unpack() }); a != 2 {
		t.Errorf("Unpack made %v allocations, want 2 (node slab and edge slab)", a)
	}
	c.Edges = append(c.Edges, 7)
	c.Left.Cost = -1
	if len(c.Left.Edges) != 1 || c.Left.Edges[0] != 0 {
		t.Errorf("append to the root's Edges overwrote its child's: %v", c.Left.Edges)
	}
	if again := packed.Unpack(); len(again.Edges) != 1 || again.Left.Cost != 50 {
		t.Error("writing an unpacked tree changed the packed one")
	}
	if Pack(Leaf(0, 1)).Unpack().Edges != nil {
		t.Error("an unpacked leaf gained an Edges slice")
	}
	if Pack(nil).Unpack() != nil {
		t.Error("Pack(nil) unpacked to a tree")
	}
}

// TestPackedSize: the packed form takes at most 48 bytes per node plus
// 4 per edge, against a Node's 112 bytes plus 8 per edge.
func TestPackedSize(t *testing.T) {
	tree := leftDeep3()
	nodes, edges := tree.size()
	p := Pack(tree)
	got := uintptr(cap(p.nodes))*unsafe.Sizeof(p.nodes[0]) + uintptr(cap(p.edges))*unsafe.Sizeof(p.edges[0])
	if want := uintptr(48*nodes + 4*edges); got > want {
		t.Errorf("%d nodes and %d edges pack into %d bytes, want at most %d", nodes, edges, got, want)
	}
}

func TestJoinPanics(t *testing.T) {
	cases := []func(){
		func() { Join(algebra.Join, nil, Leaf(0, 1), nil, 1, 1) },
		func() { Join(algebra.Join, Leaf(0, 1), nil, nil, 1, 1) },
		func() { Join(algebra.InvalidOp, Leaf(0, 1), Leaf(1, 1), nil, 1, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestShapes(t *testing.T) {
	a, b, c, d := Leaf(0, 1), Leaf(1, 1), Leaf(2, 1), Leaf(3, 1)
	ld := Join(algebra.Join, Join(algebra.Join, a, b, nil, 1, 1), c, nil, 1, 1)
	if s := ld.TreeShape(); s != LeftDeep {
		t.Errorf("shape = %v, want left-deep", s)
	}
	rd := Join(algebra.Join, a, Join(algebra.Join, b, c, nil, 1, 1), nil, 1, 1)
	if s := rd.TreeShape(); s != RightDeep {
		t.Errorf("shape = %v, want right-deep", s)
	}
	zz := Join(algebra.Join, d, Join(algebra.Join, Join(algebra.Join, a, b, nil, 1, 1), c, nil, 1, 1), nil, 1, 1)
	// d ⋈ ((a⋈b)⋈c): root has leaf left, composite right; inner all have leaf right.
	if s := zz.TreeShape(); s != ZigZag {
		t.Errorf("shape = %v, want zig-zag", s)
	}
	bushy := Join(algebra.Join,
		Join(algebra.Join, a, b, nil, 1, 1),
		Join(algebra.Join, c, d, nil, 1, 1), nil, 1, 1)
	if s := bushy.TreeShape(); s != Bushy {
		t.Errorf("shape = %v, want bushy", s)
	}
	if Leaf(0, 1).TreeShape() != LeftDeep {
		t.Error("single leaf defaults to left-deep")
	}
	for _, s := range []Shape{LeftDeep, RightDeep, ZigZag, Bushy} {
		if s.String() == "unknown" {
			t.Errorf("missing name for shape %d", s)
		}
	}
	if Shape(99).String() != "unknown" {
		t.Error("out-of-range shape must be unknown")
	}
}

func TestCompact(t *testing.T) {
	p := leftDeep3()
	got := p.Compact()
	want := "((R0 ⋈ R1) ⟕ R2)"
	if got != want {
		t.Errorf("Compact = %q, want %q", got, want)
	}
}

func TestStringRendering(t *testing.T) {
	s := leftDeep3().String()
	for _, frag := range []string{"leftouterjoin", "join", "scan R0", "scan R2", "card=", "cost=", "edges=[1]"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q in:\n%s", frag, s)
		}
	}
}

func TestEqual(t *testing.T) {
	a := leftDeep3()
	b := leftDeep3()
	if !a.Equal(b) {
		t.Error("identical trees must be equal")
	}
	b.Op = algebra.Join
	if a.Equal(b) {
		t.Error("different root op must differ")
	}
	c := leftDeep3()
	c.Left.Left.Rel = 5
	c.Left.Left.Rels = bitset.Single(5)
	if a.Equal(c) {
		t.Error("different leaf must differ")
	}
	if a.Equal(nil) {
		t.Error("nil differs from non-nil")
	}
	var n1, n2 *Node
	if !n1.Equal(n2) {
		t.Error("nil equals nil")
	}
	// Cost differences alone do not affect structural equality.
	d := leftDeep3()
	d.Cost = 999
	if !a.Equal(d) {
		t.Error("cost must not affect Equal")
	}
}

func TestWalkAndLeafOrder(t *testing.T) {
	p := leftDeep3()
	var count int
	p.Walk(func(*Node) { count++ })
	if count != 5 {
		t.Errorf("walked %d nodes, want 5", count)
	}
	order := p.LeafOrder()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("leaf order = %v", order)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := leftDeep3()
	p.Rels = bitset.New(0, 1) // drop R2 from the root cover
	if p.Validate() == nil {
		t.Error("expected partition violation")
	}

	q := leftDeep3()
	q.Left.Right.Rel = 2 // duplicate R2 on both sides
	q.Left.Right.Rels = bitset.Single(2)
	q.Left.Rels = bitset.New(0, 2)
	if q.Validate() == nil {
		t.Error("expected overlap violation")
	}

	leaf := Leaf(0, 1)
	leaf.Rels = bitset.New(0, 1)
	if leaf.Validate() == nil {
		t.Error("expected leaf rels violation")
	}
}
