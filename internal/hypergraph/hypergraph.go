// Package hypergraph implements the query hypergraphs of "Dynamic
// Programming Strikes Back" (Moerkotte & Neumann, SIGMOD 2008).
//
// A hypergraph H = (V,E) has relations as nodes and join predicates as
// edges. A hyperedge is an unordered pair (u,v) of non-empty, disjoint
// hypernodes (Definition 1); a generalized hyperedge (Definition 6) is a
// triple (u,v,w) where the relations in w may appear on either side of
// the join. Nodes are totally ordered by their index; the ordering drives
// duplicate avoidance in the enumeration algorithms.
//
// The package provides the neighborhood computation N(S,X) of §2.3
// (Equation 1), including the elimination of subsumed hypernodes
// (E↓(S,X)), connectivity predicates for csg-cmp-pair tests, a
// Definition-3 connectivity oracle for validation, and connectivity
// repair by cross hyperedges (§2.1).
package hypergraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

// Relation is a node of the hypergraph: a base relation with an estimated
// cardinality used by the cost model.
//
// Free is non-empty for dependent relations (§5.1/§5.6): table-valued
// expressions such as S(R) whose evaluation references attributes of the
// relations in Free. Base tables have Free = ∅.
type Relation struct {
	Name string
	Card float64
	Free bitset.Set
}

// Edge is a (possibly generalized) hyperedge. U and V are the two
// hypernodes; W is the optional set of "free side" relations of
// Definition 6 that may appear on either side of the join (empty for
// ordinary hyperedges). U, V, W must be non-empty (W may be empty),
// pairwise disjoint subsets of the node set.
//
// Each edge additionally carries the information the plan generator
// needs: the selectivity of the represented predicate, the operator the
// edge was derived from (§5.4 attaches the originating operator so that
// EmitCsgCmp can rebuild non-commutative plans), and an optional label
// and payload for predicate bookkeeping by higher layers.
//
// For edges derived from non-commutative operators, U is the hypernode
// that must appear on the *left* of the operator and V the one on the
// right (§5.7: r = TES(∘) ∩ T(right(∘)), l = TES(∘) ∖ r).
type Edge struct {
	U, V, W bitset.Set
	Sel     float64
	Op      algebra.Op
	Label   string
	Payload any
}

// Simple reports whether the edge is simple: |U| = |V| = 1 and W = ∅
// (Definitions 1 and 6).
func (e *Edge) Simple() bool {
	return e.W.IsEmpty() && e.U.IsSingleton() && e.V.IsSingleton()
}

// Nodes returns all nodes the edge touches: U ∪ V ∪ W.
func (e *Edge) Nodes() bitset.Set { return e.U.Union(e.V).Union(e.W) }

// Graph is a query hypergraph under construction or in use. The zero
// value is an empty graph; add relations and edges, then hand it to an
// enumerator. Graphs are not safe for concurrent mutation; after a call
// to Freeze (which the Planner performs before enumeration) concurrent
// readers are safe as long as no further mutations happen.
type Graph struct {
	rels  []Relation
	edges []Edge

	// mu guards the lazily built state (derived indexes, connectivity
	// memo) so that Freeze and the Definition-3 oracle can be used from
	// concurrent readers. The relations and edges themselves are only
	// written by the single-threaded construction phase.
	mu sync.Mutex

	// Derived indexes, rebuilt lazily after mutations.
	dirty           bool
	simpleNeighbors []bitset.Set // node -> union of simple-edge partners
	complexEdges    []int        // indices of non-simple edges
	connected       bool         // the whole hypergraph is one reachability component
	skelConnected   bool         // so is the simple-edge skeleton alone

	// Definition-3 connectivity memo, invalidated on mutation.
	// Keyed by Set.Key (Set itself is not a valid map key).
	connMemo map[string]bool
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddRelation appends a relation and returns its node index. Cardinality
// must be positive and finite. Node indices determine the total order ≺
// of §2.1.
func (g *Graph) AddRelation(name string, card float64) int {
	if len(g.rels) >= bitset.MaxElems {
		panic(fmt.Sprintf("hypergraph: more than %d relations", bitset.MaxElems))
	}
	// Written so that NaN fails too: every comparison with NaN is false.
	if !(card > 0) || math.IsInf(card, 1) {
		panic(fmt.Sprintf("hypergraph: relation %q has cardinality %g, want finite and positive", name, card))
	}
	g.rels = append(g.rels, Relation{Name: name, Card: card})
	g.invalidate()
	return len(g.rels) - 1
}

// AddRelations adds n relations named prefix0..prefix(n-1) with the given
// uniform cardinality and returns the index of the first.
func (g *Graph) AddRelations(n int, prefix string, card float64) int {
	first := len(g.rels)
	for i := 0; i < n; i++ {
		g.AddRelation(fmt.Sprintf("%s%d", prefix, i), card)
	}
	return first
}

// AddEdge validates and appends an edge, returning its index.
func (g *Graph) AddEdge(e Edge) int {
	if e.U.IsEmpty() || e.V.IsEmpty() {
		panic("hypergraph: hyperedge hypernodes must be non-empty (Definition 1)")
	}
	if !g.known(e.U) || !g.known(e.V) || !g.known(e.W) {
		panic("hypergraph: edge references unknown relations")
	}
	if e.U.Overlaps(e.V) || e.U.Overlaps(e.W) || e.V.Overlaps(e.W) {
		panic("hypergraph: u, v, w must be pairwise disjoint")
	}
	if !(e.Sel > 0 && e.Sel <= 1) { // NaN fails both comparisons
		panic(fmt.Sprintf("hypergraph: selectivity %g outside (0,1]", e.Sel))
	}
	if e.Op == algebra.InvalidOp {
		e.Op = algebra.Join
	}
	g.edges = append(g.edges, e)
	g.invalidate()
	return len(g.edges) - 1
}

// AddSimpleEdge adds an ordinary binary inner-join edge between relations
// a and b with the given selectivity and returns its index.
func (g *Graph) AddSimpleEdge(a, b int, sel float64) int {
	return g.AddEdge(Edge{U: bitset.Single(a), V: bitset.Single(b), Sel: sel})
}

// SetFree marks relation rel as a dependent expression whose free
// variables reference the relations in free (§5.6). It panics if rel
// would depend on itself.
func (g *Graph) SetFree(rel int, free bitset.Set) {
	if free.Has(rel) {
		panic("hypergraph: relation cannot depend on itself")
	}
	if !g.known(free) {
		panic("hypergraph: free set references unknown relations")
	}
	g.rels[rel].Free = free
}

// known reports whether every element of s is a relation of g, without
// building the full node set.
func (g *Graph) known(s bitset.Set) bool {
	return s.IsEmpty() || s.Max() < len(g.rels)
}

// Grow reserves room for rels more relations and edges more edges, so a
// builder that knows the query's size appends without reallocating.
func (g *Graph) Grow(rels, edges int) {
	g.rels = slices.Grow(g.rels, rels)
	g.edges = slices.Grow(g.edges, edges)
}

// FreeTables returns FT(S): the tables referenced freely by the
// expressions of the relations in S that are not themselves in S. A plan
// for S can only be evaluated once all of FT(S) is bound by the left
// argument of an enclosing dependent join (§5.6).
func (g *Graph) FreeTables(S bitset.Set) bitset.Set {
	var ft bitset.Set
	for i := S.NextElem(0); i >= 0; i = S.NextElem(i + 1) {
		ft = ft.Union(g.rels[i].Free)
	}
	return ft.Minus(S)
}

// NumRels returns |V|.
func (g *Graph) NumRels() int { return len(g.rels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Relation returns the i-th relation.
func (g *Graph) Relation(i int) Relation { return g.rels[i] }

// Edge returns a pointer to the i-th edge. The pointer stays valid until
// the next AddEdge.
func (g *Graph) Edge(i int) *Edge { return &g.edges[i] }

// AllNodes returns the full node set V.
func (g *Graph) AllNodes() bitset.Set { return bitset.Full(len(g.rels)) }

func (g *Graph) invalidate() {
	g.dirty = true
	g.connMemo = nil
}

// Freeze eagerly builds the derived indexes under the graph's lock.
// Call it once before handing the graph to concurrent enumerations: the
// index build is the only write the read path would otherwise perform
// lazily, so a frozen, no-longer-mutated graph is safe for any number of
// concurrent readers. (Goroutines observing the clean index state via
// Freeze's mutex inherit the necessary happens-before edge.)
func (g *Graph) Freeze() {
	g.mu.Lock()
	g.ensureIndex()
	g.mu.Unlock()
}

// ensureIndex rebuilds the derived indexes. Besides the neighbour table
// it records reachability, found with one union-find pass over the
// edges: O(V+E), and without allocating up to 64 relations. Simple edges
// are merged first, so the component count after them is the
// skeleton's.
//
//dp:coldpath index rebuild runs once per graph mutation, guarded by g.dirty
func (g *Graph) ensureIndex() {
	if !g.dirty && g.simpleNeighbors != nil {
		return
	}
	n := len(g.rels)
	g.simpleNeighbors = make([]bitset.Set, n)
	g.complexEdges = g.complexEdges[:0]
	var small [64]int32
	uf := small[:0]
	if n > len(small) {
		uf = make([]int32, n)
	}
	uf = newForest(uf[:n])
	comps := n
	for i := range g.edges {
		e := &g.edges[i]
		if e.Simple() {
			a, b := e.U.Min(), e.V.Min()
			g.simpleNeighbors[a] = g.simpleNeighbors[a].Add(b)
			g.simpleNeighbors[b] = g.simpleNeighbors[b].Add(a)
			if union(uf, int32(a), int32(b)) {
				comps--
			}
		} else {
			g.complexEdges = append(g.complexEdges, i)
		}
	}
	g.skelConnected = comps <= 1
	for _, ei := range g.complexEdges {
		e := &g.edges[ei]
		first := int32(e.U.Min())
		for _, s := range [...]bitset.Set{e.U, e.V, e.W} {
			for x := s.NextElem(0); x >= 0; x = s.NextElem(x + 1) {
				if union(uf, first, int32(x)) {
					comps--
				}
			}
		}
	}
	g.connected = comps <= 1
	g.dirty = false
}

// Connectivity reports whether the whole hypergraph, where an edge links
// every node it touches (as in Components), and its simple-edge skeleton
// alone each form a single component. A graph of at most one relation
// is connected. The answer comes from the derived index, which this
// builds under the graph's lock like Freeze.
func (g *Graph) Connectivity() (whole, skeleton bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureIndex()
	return g.connected, g.skelConnected
}

// SimpleDegree returns the number of distinct relations joined to rel by
// simple edges. Like SimpleNeighborUnion it reads the derived index, so
// concurrent callers need a frozen graph.
func (g *Graph) SimpleDegree(rel int) int {
	g.ensureIndex()
	return g.simpleNeighbors[rel].Len()
}

// newForest resets uf to a union-find forest of singletons.
func newForest(uf []int32) []int32 {
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

// find returns the root of x's tree, halving the path on the way.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// union merges the trees of a and b, hanging a's root under b's, and
// reports whether they were separate.
func union(uf []int32, a, b int32) bool {
	ra, rb := find(uf, a), find(uf, b)
	if ra == rb {
		return false
	}
	uf[ra] = rb
	return true
}

// CandidateHypernodes returns E↓(S,X): the ⊆-minimal hypernodes v such
// that some edge (u,v) has u ⊆ S, v ∩ S = ∅, v ∩ X = ∅ (§2.3). For
// generalized edges (u,v,w) with u ⊆ S the candidate is v ∪ (w∖S) per §6.
// Exposed for tests and for the counting package; the hot path is
// Neighborhood.
func (g *Graph) CandidateHypernodes(S, X bitset.Set) []bitset.Set {
	g.ensureIndex()
	forbidden := S.Union(X)

	var cands []bitset.Set
	// Simple edges produce singleton candidates, which are minimal by
	// construction.
	var singles bitset.Set
	S.ForEach(func(i int) {
		singles = singles.Union(g.simpleNeighbors[i])
	})
	singles = singles.Minus(forbidden)
	singles.ForEach(func(b int) {
		cands = append(cands, bitset.Single(b))
	})

	for _, ei := range g.complexEdges {
		e := &g.edges[ei]
		for flip := 0; flip < 2; flip++ {
			u, v := e.U, e.V
			if flip == 1 {
				u, v = v, u
			}
			if !u.SubsetOf(S) || v.Overlaps(S) {
				continue
			}
			cand := v.Union(e.W.Minus(S))
			if cand.Overlaps(forbidden) {
				continue
			}
			cands = append(cands, cand)
		}
	}
	return minimalHypernodes(cands)
}

// candLess orders candidate hypernodes by cardinality, then canonically.
func candLess(a, b bitset.Set) bool {
	la, lb := a.Len(), b.Len()
	if la != lb {
		return la < lb
	}
	return a.Less(b)
}

// minimalHypernodes removes duplicates and any hypernode that is a strict
// superset of another candidate ("Define E↓(S,X) to be the minimal set of
// hypernodes such that for all v ∈ E↓'(S,X) there exists a hypernode v'
// in E↓(S,X) such that v' ⊆ v", §2.3).
func minimalHypernodes(cands []bitset.Set) []bitset.Set {
	if len(cands) <= 1 {
		return cands
	}
	// Sorting by cardinality lets each candidate be checked only against
	// smaller ones. Candidate lists are bounded by the edge count and
	// typically tiny, so an insertion sort beats sort.Slice here — and
	// unlike sort.Slice it neither boxes the slice nor allocates the
	// comparison closure (this runs on DPhyp's neighborhood hot path on
	// hypergraphs).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	out := cands[:0]
	for _, c := range cands {
		subsumed := false
		for _, m := range out {
			if m.SubsetOf(c) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return out
}

// Neighborhood computes N(S,X) of Equation 1: the union of min(v) over
// all v in E↓(S,X). The returned set contains one representative node per
// minimal candidate hypernode; the remaining nodes of a hypernode are
// reached through recursive growth and validated against the DP table, as
// described in §3 ("the algorithm therefore picks a canonical end node").
// It composes the two parts DPhyp computes separately.
func (g *Graph) Neighborhood(S, X bitset.Set) bitset.Set {
	return g.HyperNeighborhood(S, X, g.SimpleNeighborUnion(S).Minus(S.Union(X)), nil)
}

// NeighborScratch holds the candidate buffer HyperNeighborhood reuses
// across calls, removing the per-call allocation that dominates the
// DPhyp neighborhood computation on hypergraph workloads. Each
// enumeration goroutine owns its own scratch.
type NeighborScratch struct {
	cands []bitset.Set
}

// SimpleNeighborUnion returns the union of the simple-edge partners of
// every node in S, before any forbidden-set filtering. DPhyp maintains
// this union incrementally while growing subgraphs — extending S by n
// only needs the union over n — so the simple-edge part of N(S,X),
// su ∖ (S ∪ X), costs it no pass over S.
func (g *Graph) SimpleNeighborUnion(S bitset.Set) bitset.Set {
	g.ensureIndex()
	var su bitset.Set
	for i := S.NextElem(0); i >= 0; i = S.NextElem(i + 1) {
		su = su.Union(g.simpleNeighbors[i])
	}
	return su
}

// HasHyperedges reports whether g has an edge that is not simple. Like
// SimpleNeighborUnion it reads the derived index, so concurrent callers
// need a frozen graph.
func (g *Graph) HasHyperedges() bool {
	g.ensureIndex()
	return len(g.complexEdges) > 0
}

// HyperNeighborhood completes N(S,X) from its simple-edge part n =
// SimpleNeighborUnion(S) ∖ (S ∪ X): it adds min(v) for every ⊆-minimal
// hyperedge candidate v of E↓(S,X) that n does not subsume. A non-nil
// sc supplies the candidate buffer, so the call does not allocate.
func (g *Graph) HyperNeighborhood(S, X, n bitset.Set, sc *NeighborScratch) bitset.Set {
	g.ensureIndex()
	forbidden := S.Union(X)

	// Complex candidates, filtered against the singleton candidates and
	// each other for ⊆-minimality.
	var cands []bitset.Set
	if sc != nil {
		cands = sc.cands[:0]
	}
	for _, ei := range g.complexEdges {
		e := &g.edges[ei]
		for flip := 0; flip < 2; flip++ {
			u, v := e.U, e.V
			if flip == 1 {
				u, v = v, u
			}
			if !u.SubsetOf(S) || v.Overlaps(S) {
				continue
			}
			cand := v.Union(e.W.Minus(S))
			if cand.Overlaps(forbidden) {
				continue
			}
			if cand.IsSingleton() {
				n = n.Union(cand)
				continue
			}
			if cand.Overlaps(n) {
				// Subsumed by a singleton candidate.
				continue
			}
			cands = append(cands, cand)
		}
	}
	if sc != nil {
		sc.cands = cands[:0] // keep grown storage for the next call
	}
	if len(cands) > 0 {
		for _, c := range minimalHypernodes(cands) {
			if c.Overlaps(n) {
				// A singleton added after the candidate was collected may
				// subsume it.
				continue
			}
			n = n.Union(c.MinSet())
		}
	}
	return n
}

// ConnectsTo reports whether some edge connects disjoint hypernodes S1
// and S2: ∃(u,v,w) ∈ E with u ⊆ S1, v ⊆ S2, w ⊆ S1∪S2 or the symmetric
// orientation (Definitions 4 and 7).
func (g *Graph) ConnectsTo(S1, S2 bitset.Set) bool {
	both := S1.Union(S2)
	for i := range g.edges {
		e := &g.edges[i]
		if !e.W.SubsetOf(both) {
			continue
		}
		if (e.U.SubsetOf(S1) && e.V.SubsetOf(S2)) ||
			(e.U.SubsetOf(S2) && e.V.SubsetOf(S1)) {
			return true
		}
	}
	return false
}

// IsConnected implements the recursive connectivity test of Definition 3:
// S is connected iff |S| = 1 or there is a partition S = V' ∪ V” bridged
// by an edge with both halves connected. Results are memoized until the
// graph is mutated. This is exponential in |S| and exists as a
// correctness oracle for tests and search-space accounting; the
// enumeration algorithms never call it (they use DP-table lookups
// instead, §3.2).
func (g *Graph) IsConnected(S bitset.Set) bool {
	if S.IsEmpty() {
		return false
	}
	if S.IsSingleton() {
		return true
	}
	g.mu.Lock()
	if g.connMemo == nil {
		g.connMemo = make(map[string]bool)
	}
	key := S.Key()
	v, ok := g.connMemo[key]
	g.mu.Unlock()
	if ok {
		return v
	}
	// Fix min(S) ∈ V' to avoid checking each partition twice.
	res := false
	rest := S.MinusMin()
	lo := S.MinSet()
	// Enumerate subsets A of rest; V' = lo ∪ A, V'' = S ∖ V'.
	// A may be empty (V' = {min}), but V'' must be non-empty, so A ⊂ rest.
	for a := bitset.Empty; ; a = a.NextSubset(rest) {
		v1 := lo.Union(a)
		v2 := S.Minus(v1)
		if !v2.IsEmpty() &&
			g.ConnectsTo(v1, v2) && g.IsConnected(v1) && g.IsConnected(v2) {
			res = true
			break
		}
		if a.Equal(rest) {
			break
		}
	}
	g.mu.Lock()
	g.connMemo[key] = res
	g.mu.Unlock()
	return res
}

// Components partitions the node set into reachability components, where
// an edge links every node it touches (U ∪ V ∪ W). Two nodes in different
// components are certainly not connected in the Definition-3 sense; this
// is the partition the connectivity repair of §2.1 operates on.
func (g *Graph) Components() []bitset.Set {
	n := len(g.rels)
	uf := newForest(make([]int32, n))
	for i := range g.edges {
		nodes := g.edges[i].Nodes()
		first := int32(nodes.Min())
		nodes.ForEach(func(e int) { union(uf, first, int32(e)) })
	}
	byRoot := map[int]bitset.Set{}
	var roots []int
	for i := 0; i < n; i++ {
		r := int(find(uf, int32(i)))
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = byRoot[r].Add(i)
	}
	sort.Ints(roots)
	out := make([]bitset.Set, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// MakeConnected applies the connectivity repair of §2.1: "for every pair
// of connected components, we can add a hyperedge whose hypernodes
// contain exactly the relations of the connected components", interpreted
// as ⨯ operators with selectivity 1. It returns the number of edges
// added.
func (g *Graph) MakeConnected() int {
	comps := g.Components()
	added := 0
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			g.AddEdge(Edge{
				U:     comps[i],
				V:     comps[j],
				Sel:   1,
				Op:    algebra.Join,
				Label: "cross",
			})
			added++
		}
	}
	return added
}

// String renders a compact description of the graph.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hypergraph: %d relations, %d edges\n", len(g.rels), len(g.edges))
	for i, r := range g.rels {
		fmt.Fprintf(&b, "  R%d %s |%g|\n", i, r.Name, r.Card)
	}
	for i := range g.edges {
		e := &g.edges[i]
		fmt.Fprintf(&b, "  e%d: %v -- %v", i, e.U, e.V)
		if !e.W.IsEmpty() {
			fmt.Fprintf(&b, " free %v", e.W)
		}
		fmt.Fprintf(&b, " sel=%g op=%s", e.Sel, e.Op)
		if e.Label != "" {
			fmt.Fprintf(&b, " (%s)", e.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot renders the hypergraph in Graphviz format. Simple edges become
// plain edges; hyperedges become a box node connected to both hypernodes'
// members.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("graph query {\n  node [shape=circle];\n")
	for i, r := range g.rels {
		fmt.Fprintf(&b, "  R%d [label=\"%s\"];\n", i, r.Name)
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.Simple() {
			fmt.Fprintf(&b, "  R%d -- R%d;\n", e.U.Min(), e.V.Min())
			continue
		}
		fmt.Fprintf(&b, "  he%d [shape=box,label=\"%s\"];\n", i, e.Op.Symbol())
		e.U.ForEach(func(n int) { fmt.Fprintf(&b, "  R%d -- he%d [style=solid];\n", n, i) })
		e.V.ForEach(func(n int) { fmt.Fprintf(&b, "  he%d -- R%d [style=solid];\n", i, n) })
		e.W.ForEach(func(n int) { fmt.Fprintf(&b, "  he%d -- R%d [style=dashed];\n", i, n) })
	}
	b.WriteString("}\n")
	return b.String()
}

// Fingerprint returns a canonical, collision-free key describing
// everything about the graph that influences plan choice: the relation
// cardinalities and free sets, and for every edge its hypernodes,
// selectivity, and operator, in stored order. Labels, payloads, and
// relation names are display/execution metadata and are excluded, so two
// structurally identical queries share a fingerprint and can share a
// cached plan. Edge order is part of the key because plans reference
// edges by index. The text is built in a 1 KiB stack buffer, so up to
// that length the string is the only allocation.
func (g *Graph) Fingerprint() string { return string(g.AppendFingerprint(make([]byte, 0, 1024))) }

// AppendFingerprint appends the Fingerprint bytes to b and returns the
// extended slice, so a caller can build a composite key in its own
// buffer without allocating.
func (g *Graph) AppendFingerprint(b []byte) []byte {
	b = strconv.AppendInt(b, int64(len(g.rels)), 10)
	for i := range g.rels {
		r := &g.rels[i]
		b = append(b, '|')
		b = strconv.AppendFloat(b, r.Card, 'b', -1, 64)
		if !r.Free.IsEmpty() {
			b = append(b, '~')
			b = r.Free.AppendHex(b)
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		b = append(b, ';')
		b = e.U.AppendHex(b)
		b = append(b, ',')
		b = e.V.AppendHex(b)
		b = append(b, ',')
		b = e.W.AppendHex(b)
		b = append(b, ':')
		b = strconv.AppendFloat(b, e.Sel, 'b', -1, 64)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(e.Op), 10)
	}
	return b
}

// Clone returns a deep copy of the graph (edges share payload pointers).
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		rels:  append([]Relation(nil), g.rels...),
		edges: append([]Edge(nil), g.edges...),
	}
	ng.invalidate()
	return ng
}

// PaperExampleGraph builds the hypergraph of Figure 2: six relations,
// simple edges R1–R2, R2–R3, R4–R5, R5–R6, and the hyperedge
// ({R1,R2,R3},{R4,R5,R6}). Node indices are shifted down by one (the
// paper's R1 is node 0). Used by tests and the complexpredicate example.
func PaperExampleGraph() *Graph {
	g := New()
	for i := 1; i <= 6; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), 100)
	}
	g.AddSimpleEdge(0, 1, 0.1) // R1-R2
	g.AddSimpleEdge(1, 2, 0.1) // R2-R3
	g.AddSimpleEdge(3, 4, 0.1) // R4-R5
	g.AddSimpleEdge(4, 5, 0.1) // R5-R6
	g.AddEdge(Edge{
		U:     bitset.New(0, 1, 2),
		V:     bitset.New(3, 4, 5),
		Sel:   0.05,
		Label: "R1.a+R2.b+R3.c = R4.d+R5.e+R6.f",
	})
	return g
}
