// Package plan represents the bushy operator trees produced by the join
// enumeration algorithms.
//
// A plan node is either a scan of a base relation or a binary operator
// over two subplans. Nodes carry the relation set they cover, the
// estimated output cardinality, the accumulated cost, and the hypergraph
// edges whose predicates are applied at the node, so that EmitCsgCmp can
// assemble the conjunction p = ⋀ P(u,v) of §3.5.
//
// Packed is the compact form of a tree for plans kept long and read
// rarely, such as the planner's plan cache: Pack stores a tree as
// post-order records of about 40 bytes per node, and Unpack rebuilds a
// fresh tree from them.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

// Node is a node of an operator tree. Exactly one of the two layouts is
// populated: leaves have Rel ≥ 0 and no children; inner nodes have
// Op ≠ InvalidOp and both children.
type Node struct {
	Op          algebra.Op
	Left, Right *Node

	Rel  int        // base relation index for leaves; -1 otherwise
	Rels bitset.Set // set of relations covered by this subtree

	Card float64 // estimated output cardinality
	Cost float64 // accumulated cost under the optimizing cost model

	// Phys is the physical implementation chosen for this node when the
	// optimizing model is a cost.PhysicalModel; PhysNone under
	// logical-only models and for leaves.
	Phys algebra.PhysOp

	Edges []int // hypergraph edge indices applied at this node
}

// Leaf returns a scan node for relation rel with the given cardinality.
// A scan has zero cost under all provided models (only intermediate
// results are priced).
func Leaf(rel int, card float64) *Node {
	return &Node{Rel: rel, Rels: bitset.Single(rel), Card: card}
}

// Join returns an operator node combining left and right.
func Join(op algebra.Op, left, right *Node, edges []int, card, cost float64) *Node {
	if left == nil || right == nil {
		panic("plan: join with nil child")
	}
	if !op.Valid() {
		panic("plan: join with invalid operator")
	}
	return &Node{
		Op:    op,
		Left:  left,
		Right: right,
		Rel:   -1,
		Rels:  left.Rels.Union(right.Rels),
		Card:  card,
		Cost:  cost,
		Edges: edges,
	}
}

// IsLeaf reports whether n is a base relation scan.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Joins returns the number of operator nodes in the tree.
func (n *Node) Joins() int {
	if n.IsLeaf() {
		return 0
	}
	return 1 + n.Left.Joins() + n.Right.Joins()
}

// Relations returns the number of leaves.
func (n *Node) Relations() int { return n.Rels.Len() }

// Depth returns the height of the tree (a leaf has depth 1).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Shape classifies the tree form.
type Shape int

// Tree shapes, from most to least constrained.
const (
	LeftDeep  Shape = iota // every right child is a leaf
	RightDeep              // every left child is a leaf
	ZigZag                 // every operator has at least one leaf child
	Bushy                  // some operator joins two composite inputs
)

func (s Shape) String() string {
	switch s {
	case LeftDeep:
		return "left-deep"
	case RightDeep:
		return "right-deep"
	case ZigZag:
		return "zig-zag"
	case Bushy:
		return "bushy"
	}
	return "unknown"
}

// TreeShape returns the shape of the tree. Trees with ≤ 1 join are
// left-deep by convention.
func (n *Node) TreeShape() Shape {
	leftDeep, rightDeep, zigzag := true, true, true
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsLeaf() {
			return
		}
		if !m.Right.IsLeaf() {
			leftDeep = false
		}
		if !m.Left.IsLeaf() {
			rightDeep = false
		}
		if !m.Left.IsLeaf() && !m.Right.IsLeaf() {
			zigzag = false
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	switch {
	case leftDeep:
		return LeftDeep
	case rightDeep:
		return RightDeep
	case zigzag:
		return ZigZag
	default:
		return Bushy
	}
}

// Compact renders the tree on one line, e.g. "((R0 ⋈ R1) ⟕ R2)".
func (n *Node) Compact() string {
	var b strings.Builder
	n.compact(&b)
	return b.String()
}

func (n *Node) compact(b *strings.Builder) {
	if n.IsLeaf() {
		fmt.Fprintf(b, "R%d", n.Rel)
		return
	}
	b.WriteByte('(')
	n.Left.compact(b)
	b.WriteByte(' ')
	b.WriteString(n.Op.Symbol())
	b.WriteByte(' ')
	n.Right.compact(b)
	b.WriteByte(')')
}

// String renders an indented multi-line tree with cardinalities and
// costs.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%sscan R%d  card=%.6g\n", indent, n.Rel, n.Card)
		return
	}
	fmt.Fprintf(b, "%s%s %v  card=%.6g cost=%.6g", indent, n.Op, n.Rels, n.Card, n.Cost)
	if n.Phys != algebra.PhysNone {
		fmt.Fprintf(b, " phys=%s", n.Phys)
	}
	if len(n.Edges) > 0 {
		fmt.Fprintf(b, " edges=%v", n.Edges)
	}
	b.WriteByte('\n')
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
}

// Equal reports structural equality: same operators, same relation sets,
// same child structure. Costs and cardinalities are not compared.
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.IsLeaf() != m.IsLeaf() {
		return false
	}
	if n.IsLeaf() {
		return n.Rel == m.Rel
	}
	return n.Op == m.Op && n.Rels.Equal(m.Rels) &&
		n.Left.Equal(m.Left) && n.Right.Equal(m.Right)
}

// size counts the nodes of the tree and the edge indices they apply.
func (n *Node) size() (nodes, edges int) {
	if n == nil {
		return 0, 0
	}
	ln, le := n.Left.size()
	rn, re := n.Right.size()
	return 1 + ln + rn, len(n.Edges) + le + re
}

// Walk calls f for every node in pre-order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	if !n.IsLeaf() {
		n.Left.Walk(f)
		n.Right.Walk(f)
	}
}

// LeafOrder returns the relation indices in left-to-right leaf order.
func (n *Node) LeafOrder() []int {
	var out []int
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m.Rel)
		}
	})
	return out
}

// Validate checks structural invariants: children partition the relation
// set, leaves are singletons, operators are valid. It returns the first
// violation found.
func (n *Node) Validate() error {
	if n.IsLeaf() {
		if n.Rel < 0 {
			return fmt.Errorf("plan: leaf with negative relation index")
		}
		if !n.Rels.Equal(bitset.Single(n.Rel)) {
			return fmt.Errorf("plan: leaf R%d has Rels %v", n.Rel, n.Rels)
		}
		return nil
	}
	if !n.Op.Valid() {
		return fmt.Errorf("plan: inner node with invalid op")
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("plan: inner node with missing child")
	}
	if !n.Left.Rels.Disjoint(n.Right.Rels) {
		return fmt.Errorf("plan: children overlap: %v and %v", n.Left.Rels, n.Right.Rels)
	}
	if !n.Left.Rels.Union(n.Right.Rels).Equal(n.Rels) {
		return fmt.Errorf("plan: children do not partition %v", n.Rels)
	}
	if err := n.Left.Validate(); err != nil {
		return err
	}
	return n.Right.Validate()
}
