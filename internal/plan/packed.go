package plan

import (
	"repro/internal/algebra"
	"repro/internal/bitset"
)

// Packed is a plan tree stored compactly, for plans that are kept long
// and read rarely, such as the planner's plan cache. Nodes are records
// in post-order, so children precede their parent and the root is last;
// children are indices, not pointers, and every node's applied edges
// are one span of a shared int32 slab. Relation sets are not stored:
// Unpack derives them from the leaves. A node takes 40 bytes and an
// edge 4, where a Node takes 112 plus 8 per edge.
//
// A Packed value is never written after Pack returns, so it may be
// copied and read concurrently.
type Packed struct {
	nodes []packedNode
	edges []int32
}

// packedNode is one node of a Packed tree. left and right are node
// indices, -1 for a leaf; edges[edgeOff:edgeOff+edgeCnt] are its
// applied edges.
type packedNode struct {
	card, cost       float64
	left, right      int32
	rel              int32
	edgeOff, edgeCnt int32
	op               algebra.Op
	phys             algebra.PhysOp
}

// Pack returns the packed form of the tree rooted at n (empty for nil).
// It allocates two slabs, one for the nodes and one for the edges.
func Pack(n *Node) Packed {
	var p Packed
	if n == nil {
		return p
	}
	nodes, edges := n.size()
	p.nodes = make([]packedNode, 0, nodes)
	if edges > 0 {
		p.edges = make([]int32, 0, edges)
	}
	p.pack(n)
	return p
}

// pack appends n's subtree in post-order and returns n's index.
func (p *Packed) pack(n *Node) int32 {
	pn := packedNode{card: n.Card, cost: n.Cost, left: -1, right: -1,
		rel: int32(n.Rel), op: n.Op, phys: n.Phys}
	if !n.IsLeaf() {
		pn.left = p.pack(n.Left)
		pn.right = p.pack(n.Right)
	}
	pn.edgeOff, pn.edgeCnt = int32(len(p.edges)), int32(len(n.Edges))
	for _, e := range n.Edges {
		p.edges = append(p.edges, int32(e))
	}
	p.nodes = append(p.nodes, pn)
	return int32(len(p.nodes) - 1)
}

// Unpack returns a fresh tree equal to the packed one (nil for an empty
// Packed): every field of every node, card and cost bits included. It
// allocates one slab for the nodes and one for the edges, whatever the
// tree's size, and caps each node's Edges at its own length, so
// appending to it reallocates instead of overwriting another node's
// edges. Rels is derived bottom-up from the leaves; a relation set with
// an element ≥ 64 carries a tail of its own, so a plan over more than
// 64 relations costs one more allocation per node covering such a
// relation.
func (p Packed) Unpack() *Node {
	if len(p.nodes) == 0 {
		return nil
	}
	nodes := make([]Node, len(p.nodes))
	var edges []int
	if len(p.edges) > 0 {
		edges = make([]int, len(p.edges))
		for i, e := range p.edges {
			edges[i] = int(e)
		}
	}
	for i := range p.nodes {
		pn, m := &p.nodes[i], &nodes[i]
		m.Op, m.Phys, m.Rel = pn.op, pn.phys, int(pn.rel)
		m.Card, m.Cost = pn.card, pn.cost
		if pn.left < 0 {
			m.Rels = bitset.Single(m.Rel)
		} else {
			m.Left, m.Right = &nodes[pn.left], &nodes[pn.right]
			m.Rels = m.Left.Rels.Union(m.Right.Rels)
		}
		if pn.edgeCnt > 0 {
			end := pn.edgeOff + pn.edgeCnt
			m.Edges = edges[pn.edgeOff:end:end]
		}
	}
	return &nodes[len(nodes)-1]
}
