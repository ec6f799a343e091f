// Package optree implements the non-inner-join front end of §5 of the
// paper: initial operator trees, syntactic eligibility sets (SES), total
// eligibility sets (TES) via the bottom-up CalcTES procedure with the
// LeftConflict/RightConflict/OC rules of the appendix, and the derivation
// of query hyperedges from TESs (§5.7).
//
// A query with outer joins, antijoins, semijoins, nestjoins, or dependent
// joins is given as an operator tree equivalent to the query (§5.3; "a
// query (hyper-)graph alone does not capture the semantics of a query in
// a correct way"). The tree is analyzed once; the result is a hypergraph
// whose hyperedges "directly cover all possible conflicts", so DPhyp
// needs no extension beyond the hyperedge computation to order non-inner
// joins.
//
// # Conflict rules
//
// Two conflict-detection variants are provided (see ConflictRule):
//
//   - Published: the literal LC/RC gates of §5.5, where the ancestor
//     predicate's tables are intersected with the right-branch (resp.
//     left-branch) tables on the path between the two operators.
//   - Conservative (default): additionally treats the ancestor predicate
//     as conflicting when it references any table under the descendant
//     operator. On star-shaped queries the published gate never fires
//     (hub–satellite predicates never mention other right branches), so
//     antijoin TESs would not grow and the search-space reduction the
//     paper measures in Fig. 8a (§5.7: "reduced from O(n²) to O(n)")
//     could not occur. The conservative gate restores exactly that
//     behaviour. Conservatism can only forbid reorderings, never admit
//     invalid ones, so plans remain correct under both variants; the
//     equivalence property tests exercise both.
package optree

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
)

// RelInfo describes one base relation (or dependent table expression) of
// the query. Free lists the relations a dependent expression references
// (empty for base tables), as in §5.6's S(R).
type RelInfo struct {
	Name string
	Card float64
	Free bitset.Set
}

// Predicate is the join predicate attached to an operator node.
type Predicate struct {
	// Tables is FT(p): the relations whose attributes the predicate
	// references.
	Tables bitset.Set
	// Sel is the predicate's selectivity.
	Sel float64
	// Label describes the predicate for plan rendering.
	Label string
	// Payload carries an executable predicate for the exec engine.
	Payload any
	// ExprTables is FT(e_i) for nestjoin aggregate expressions (§5.5's
	// SES rule for nl_{p,[a1:e1,...]}). Empty for other operators.
	ExprTables bitset.Set
	// NestRefs lists nestjoin nodes whose computed attributes a_i this
	// predicate references (the third CalcTES rule: "if ∃a_i: a_i ∈
	// F(p1)").
	NestRefs []*Node
}

// Node is a node of the initial operator tree: either a relation leaf
// (Rel ≥ 0) or a binary operator with a predicate.
type Node struct {
	Rel         int // leaf relation index; -1 for operators
	Op          algebra.Op
	Left, Right *Node
	Pred        Predicate

	// Computed by Analyze.
	tables bitset.Set
	ses    bitset.Set
	tes    bitset.Set
}

// NewLeaf returns a relation leaf.
func NewLeaf(rel int) *Node { return &Node{Rel: rel} }

// NewOp returns an operator node.
func NewOp(op algebra.Op, left, right *Node, pred Predicate) *Node {
	return &Node{Rel: -1, Op: op, Left: left, Right: right, Pred: pred}
}

// IsLeaf reports whether n is a relation leaf.
func (n *Node) IsLeaf() bool { return n.Rel >= 0 }

// Tables returns T(∘): the relations in the subtree (valid after
// Analyze).
func (n *Node) Tables() bitset.Set { return n.tables }

// SES returns the syntactic eligibility set (valid after Analyze).
func (n *Node) SES() bitset.Set { return n.ses }

// TES returns the total eligibility set (valid after Analyze).
func (n *Node) TES() bitset.Set { return n.tes }

// ConflictRule selects the LC/RC gating variant; see the package comment.
type ConflictRule int

const (
	// Conservative extends the published gate so that an ancestor
	// predicate referencing any table under the descendant operator
	// counts as a potential conflict. Default.
	Conservative ConflictRule = iota
	// Published is the literal §5.5 rule.
	Published
)

func (c ConflictRule) String() string {
	if c == Published {
		return "published"
	}
	return "conservative"
}

// Tree is an analyzed operator tree.
type Tree struct {
	Root *Node
	Rels []RelInfo
	Rule ConflictRule

	ops []*Node // operators in bottom-up (post) order
}

// Analyze validates the tree and computes T, SES, and TES for every
// operator using CalcTES (§5.5). The relations must appear in the leaves
// in ascending index order from left to right — the §5.4 convention that
// lets EmitCsgCmp reconstruct which side of a non-commutative operator a
// hyperedge endpoint belongs to.
func Analyze(root *Node, rels []RelInfo, rule ConflictRule) (*Tree, error) {
	t := &Tree{Root: root, Rels: rels, Rule: rule}

	// Validate leaf order and collect operators bottom-up.
	nextLeaf := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsLeaf() {
			if n.Rel != nextLeaf {
				return fmt.Errorf("optree: leaf R%d out of order; leaves must be numbered left to right (§5.4), expected R%d", n.Rel, nextLeaf)
			}
			if n.Rel >= len(rels) {
				return fmt.Errorf("optree: leaf R%d has no RelInfo", n.Rel)
			}
			nextLeaf++
			n.tables = bitset.Single(n.Rel)
			return nil
		}
		if !n.Op.Valid() {
			return fmt.Errorf("optree: invalid operator")
		}
		if n.Op.Dependent() {
			return fmt.Errorf("optree: initial trees use regular operators; dependency is expressed via RelInfo.Free and resolved by the plan generator (§5.6)")
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("optree: operator with missing child")
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		if err := walk(n.Right); err != nil {
			return err
		}
		n.tables = n.Left.tables.Union(n.Right.tables)
		if !(n.Pred.Sel > 0 && n.Pred.Sel <= 1) { // NaN fails both comparisons
			return fmt.Errorf("optree: predicate selectivity %g outside (0,1]", n.Pred.Sel)
		}
		if !n.Pred.Tables.SubsetOf(n.tables) {
			return fmt.Errorf("optree: predicate references %v outside the operator's tables %v", n.Pred.Tables, n.tables)
		}
		if n.Pred.Tables.Intersect(n.Right.tables).IsEmpty() || n.Pred.Tables.Intersect(n.Left.tables).IsEmpty() {
			return fmt.Errorf("optree: predicate %v must reference both sides (%v | %v); degenerate predicates are handled by query simplification before plan generation (§5.2)",
				n.Pred.Tables, n.Left.tables, n.Right.tables)
		}
		t.ops = append(t.ops, n)
		return nil
	}
	if root == nil {
		return nil, fmt.Errorf("optree: nil root")
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	if nextLeaf != len(rels) {
		return nil, fmt.Errorf("optree: %d relations declared but %d leaves found", len(rels), nextLeaf)
	}
	for i := range rels {
		if c := rels[i].Card; !(c > 0) || math.IsInf(c, 1) {
			return nil, fmt.Errorf("optree: relation %d has cardinality %g, want finite and positive", i, c)
		}
		if rels[i].Free.Has(i) {
			return nil, fmt.Errorf("optree: relation %d depends on itself", i)
		}
	}

	t.computeSES()
	t.computeTES()
	return t, nil
}

// computeSES applies the §5.5 definitions. With base relations and
// dependent table expressions both contributing SES(R) = {R}, the SES of
// an operator is the set of tables referenced by its predicate (and, for
// nestjoins, by its aggregate expressions), intersected with its subtree.
func (t *Tree) computeSES() {
	for _, n := range t.ops {
		refs := n.Pred.Tables.Union(n.Pred.ExprTables)
		n.ses = refs.Intersect(n.tables)
		n.tes = n.ses
	}
}

// computeTES runs CalcTES bottom-up for every operator (§5.5). t.ops is
// already in post order, so descendants are final before their ancestors
// are processed.
func (t *Tree) computeTES() {
	for _, o1 := range t.ops {
		// Left subtree descendants.
		forEachOp(o1.Left, func(o2 *Node) {
			if t.leftConflict(o1, o2) {
				o1.tes = o1.tes.Union(o2.tes)
			}
		})
		// Right subtree descendants.
		forEachOp(o1.Right, func(o2 *Node) {
			if t.rightConflict(o1, o2) {
				o1.tes = o1.tes.Union(o2.tes)
			}
		})
		// Nestjoin attribute dependencies: if p1 references an attribute
		// computed by a nestjoin below, the nestjoin must happen first.
		for _, nj := range o1.Pred.NestRefs {
			if nj != o1 {
				o1.tes = o1.tes.Union(nj.tes)
			}
		}
	}
}

// forEachOp visits every operator node in the subtree rooted at n.
func forEachOp(n *Node, f func(*Node)) {
	if n == nil || n.IsLeaf() {
		return
	}
	f(n)
	forEachOp(n.Left, f)
	forEachOp(n.Right, f)
}

// rightTables computes RightTables(∘1,∘2) for ∘2 ∈ STO(left(∘1)): the
// union of T(right(∘3)) for all ∘3 on the path from ∘2 (inclusive) to ∘1
// (exclusive), plus T(left(∘2)) when ∘2 is commutative (the normalization
// of appendix A.1 folded into the definition: "If ∘2 is commutative, we
// add T(left(∘2)) to RightTables(∘1,∘2)").
func rightTables(o1, o2 *Node) bitset.Set {
	var acc bitset.Set
	for cur := o1.Left; cur != nil && !cur.IsLeaf(); {
		acc = acc.Union(cur.Right.tables)
		if cur == o2 {
			break
		}
		if o2.tables.SubsetOf(cur.Left.tables) {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	if o2.Op.Commutative() {
		acc = acc.Union(o2.Left.tables)
	}
	return acc
}

// leftTables is the symmetric definition for ∘2 ∈ STO(right(∘1)): the
// union of T(left(∘3)) for ∘3 on the path from ∘2 (inclusive) to ∘1
// (exclusive), plus T(right(∘2)) when ∘2 is commutative.
func leftTables(o1, o2 *Node) bitset.Set {
	var acc bitset.Set
	for cur := o1.Right; cur != nil && !cur.IsLeaf(); {
		acc = acc.Union(cur.Left.tables)
		if cur == o2 {
			break
		}
		if o2.tables.SubsetOf(cur.Right.tables) {
			cur = cur.Right
		} else {
			cur = cur.Left
		}
	}
	if o2.Op.Commutative() {
		acc = acc.Union(o2.Right.tables)
	}
	return acc
}

// leftConflict implements LeftConflict(∘(p2), ∘p1) = LC ∧ OC(∘2,∘1) for
// ∘2 in the left subtree of ∘1 (appendix A.1: the descendant is the first
// OC argument for left nesting).
func (t *Tree) leftConflict(o1, o2 *Node) bool {
	if !algebra.OC(o2.Op, o1.Op) {
		return false
	}
	lc := o1.Pred.Tables.Overlaps(rightTables(o1, o2))
	if t.Rule == Conservative {
		lc = lc || o1.Pred.Tables.Overlaps(o2.tables)
	}
	return lc
}

// rightConflict implements RightConflict(∘p1, ∘(p2)) = RC ∧ OC(∘1,∘2) for
// ∘2 in the right subtree of ∘1 (appendix A.2: the ancestor is the first
// OC argument for right nesting), plus a soundness amendment applied
// under both rule variants.
//
// The amendment: when ∘1 is an outer join, its right subtree's rows can
// be NULL-padded, so hoisting any null-rejecting descendant ∘2 above ∘1
// drops the padded rows and changes the result — the RC table-overlap
// gate cannot see this because the danger comes from ∘2's own predicate
// rejecting padded rows, not from ∘1's predicate overlapping ∘2's
// tables. Only the proven outer-join associativities may escape:
// (P,P) via 4.46, (M,P) via 4.51, (M,M) via 4.50 — exactly the pairs
// with OC = false — and even those only when ∘1's predicate avoids ∘2's
// padded side (their predicate convention requires the ancestor to
// reference the descendant's preserved side). Without the amendment the
// execution-equivalence property tests of this repository produce plans
// with wrong results — the defect in the 2008 conflict analysis that
// Moerkotte, Fender & Neumann corrected in "On the Correct and Complete
// Enumeration of the Core Search Space" (SIGMOD 2013).
func (t *Tree) rightConflict(o1, o2 *Node) bool {
	// Second amendment: the right side of a semijoin, antijoin, or
	// nestjoin is an existence/aggregation scope whose rows are never
	// part of the output. Hoisting any operator out of the scope changes
	// the output schema and multiplicity, so every right-subtree
	// descendant conflicts; the scope's tables all join the ancestor's
	// TES, making the derived hyperedge treat the scope as one unit
	// (ordering within the scope remains free through its own edges).
	switch o1.Op {
	case algebra.SemiJoin, algebra.AntiJoin, algebra.NestJoin:
		return true
	}
	if o1.Op == algebra.LeftOuter || o1.Op == algebra.FullOuter {
		if !algebra.OC(o1.Op, o2.Op) {
			// (P,P), (M,P), (M,M): associative, but only under the
			// predicate convention — check the padded side.
			var padded bitset.Set
			switch o2.Op {
			case algebra.LeftOuter:
				padded = o2.Right.tables
			case algebra.FullOuter:
				padded = o2.tables
			}
			return o1.Pred.Tables.Overlaps(padded)
		}
		return true
	}
	if !algebra.OC(o1.Op, o2.Op) {
		return false
	}
	rc := o1.Pred.Tables.Overlaps(leftTables(o1, o2))
	if t.Rule == Conservative {
		rc = rc || o1.Pred.Tables.Overlaps(o2.tables)
	}
	return rc
}

// Ops returns the operator nodes bottom-up. Exposed for tests.
func (t *Tree) Ops() []*Node { return t.ops }

// EdgeMode selects which eligibility sets become hyperedges.
type EdgeMode int

const (
	// TESEdges derives one hyperedge per operator from its TES (§5.7):
	// r = TES(∘) ∩ T(right(∘)), l = TES(∘) ∖ r. This is the fast
	// formulation: "the hyperedges directly cover all possible
	// conflicts".
	TESEdges EdgeMode = iota
	// SESEdges derives edges from the SES only. Combined with the TES
	// Filter this is the generate-and-test paradigm the paper compares
	// against in Fig. 8a ("DPhyp TESs").
	SESEdges
)

// Hypergraph builds the query hypergraph for the analyzed tree.
func (t *Tree) Hypergraph(mode EdgeMode) *hypergraph.Graph {
	g := hypergraph.New()
	for i, r := range t.Rels {
		g.AddRelation(r.Name, r.Card)
		if !r.Free.IsEmpty() {
			g.SetFree(i, r.Free)
		}
	}
	for _, o := range t.ops {
		es := o.tes
		if mode == SESEdges {
			es = o.ses
		}
		r := es.Intersect(o.Right.tables)
		l := es.Minus(r)
		g.AddEdge(hypergraph.Edge{
			U:       l,
			V:       r,
			Sel:     o.Pred.Sel,
			Op:      o.Op,
			Label:   o.Pred.Label,
			Payload: o.Pred.Payload,
		})
	}
	return g
}

// Filter returns the generate-and-test TES check of §5.8 for use with the
// SESEdges graph g: a candidate join (left, right) is accepted only if,
// for every connecting edge, the full TES of the originating operator is
// covered and correctly placed. Plans built this way match the TESEdges
// formulation; the difference is that invalid candidates are enumerated
// and rejected late, which is the overhead Fig. 8a measures.
func (t *Tree) Filter(g *hypergraph.Graph) dp.Filter {
	// Edge i of the SESEdges graph corresponds to t.ops[i].
	type tesSides struct {
		l, r bitset.Set
		comm bool
	}
	sides := make([]tesSides, len(t.ops))
	for i, o := range t.ops {
		r := o.tes.Intersect(o.Right.tables)
		sides[i] = tesSides{l: o.tes.Minus(r), r: r, comm: o.Op.Commutative()}
	}
	return func(left, right bitset.Set, conn []dp.EdgeRef) bool {
		for _, ref := range conn {
			s := sides[ref.Idx]
			if !ref.Flipped {
				if !s.l.SubsetOf(left) || !s.r.SubsetOf(right) {
					return false
				}
			} else {
				if !s.comm {
					return false
				}
				if !s.l.SubsetOf(right) || !s.r.SubsetOf(left) {
					return false
				}
			}
		}
		return true
	}
}

// String renders the tree in compact form, e.g. "((R0 ▷ R1) ⋈ R2)".
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("R%d", n.Rel)
	}
	return fmt.Sprintf("(%s %s %s)", n.Left, n.Op.Symbol(), n.Right)
}
