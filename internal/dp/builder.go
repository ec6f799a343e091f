// Package dp provides the plan-construction semantics shared by all
// join enumeration algorithms in this repository (DPhyp, DPsize, DPsub,
// DPccp, TopDown, and the GOO fallback).
//
// Storage and accounting live one layer down, in internal/memo: the
// DP table, the flat plan-node arena, budget and
// cancellation enforcement, and the counting hooks. This package
// contributes the Backend the engine calls for every offered pair:
// Builder implements the plan-construction logic of EmitCsgCmp (§3.5) —
// recovering the operator attached to the connecting hyperedges (§5.4),
// switching to dependent variants when the right side references the
// left (§5.6), applying the optional generate-and-test filter (the
// TES-check alternative measured in Fig. 8a), estimating cardinalities,
// and costing the orientations of commutative operators — and
// materializes the winning plan tree out of the engine's arena. A model
// that declares cost.Symmetric prices an inner-join pair with one cost
// call, §2.2's minimum; every other pair is priced in each orientation
// it may take.
//
// A pair is priced from the edges both of its sides touch, never from a
// scan over every edge. An edge applied at the join of disjoint S1 and
// S2 touches both sides, so it lies in inc(S1) ∩ inc(S2), where inc(S)
// is the set of edges touching S; an edge in that intersection is
// applied iff S1 ∪ S2 covers it. The builder keeps one inc(S) row per memo entry, in
// arena-handle order: a relation's row comes from the graph, and the row
// of an entry the builder makes is the union of its two children's rows,
// so a pair reads both sides' rows by handle. The walk is in ascending
// edge index, so estimates are bit-identical across solvers and
// orientations. On a graph of at most WordMaxRels relations every
// relation set fits one machine word, and the walk tests each edge's
// hypernodes against the pair's sides as words (bitset.Set.Word); a
// wider graph's walk makes the same tests on bitset.Set values. The
// walk is also EmitPair's pair test, IterDP prices its stitched plan
// through it (PriceJoin), and GOO ranks its candidate merges with it
// (JoinCard).
//
// The package also holds the run contract the solvers share: Options
// configures any of them, and Run does the set-up and epilogue of every
// run, so a solver contributes only its enumeration order.
package dp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// ErrBudgetExhausted reports that an enumeration stopped because it
// reached its Limits before connecting the full graph. It is the memo
// engine's sentinel, re-exported for the solver and planner layers.
var ErrBudgetExhausted = memo.ErrBudgetExhausted

// Limits bounds one enumeration run; see memo.Limits.
type Limits = memo.Limits

// Stats counts the work an enumeration performed; see memo.Stats.
type Stats = memo.Stats

// Pool recycles memo engines across planning calls; see memo.Pool.
type Pool = memo.Pool

// EdgeRef identifies a hyperedge connecting a concrete csg-cmp-pair.
// Flipped is true when the edge's stored (U,V) orientation is reversed
// relative to the pair: U ⊆ S2 rather than U ⊆ S1.
type EdgeRef struct {
	Idx     int
	Flipped bool
}

// Filter decides whether a candidate join of left and right (in that
// argument order) may be built. conn lists the connecting edges with
// Flipped relative to (left, right). It implements the generate-and-test
// paradigm of §5.8: the TES test rejects plans after they have been
// enumerated, which is exactly the overhead Fig. 8a measures.
type Filter func(left, right bitset.Set, conn []EdgeRef) bool

// Builder is the plan-construction backend of one enumeration run: it
// holds the graph and cost model the memo engine is deliberately
// ignorant of, plus reusable scratch buffers for edge recovery. It
// implements memo.Backend and stays attached to its engine across pool
// round-trips so the buffers are recycled too.
type Builder struct {
	G      *hypergraph.Graph
	Model  cost.Model
	Filter Filter

	// Engine is the memo this run stores plans into.
	Engine *memo.Engine

	// What Model declares, read once per run by NewRun: physical is the
	// model as a cost.PhysicalModel (nil if it is not one), and
	// symmetric reports that it implements cost.Symmetric.
	physical  cost.PhysicalModel
	symmetric bool

	// The per-run graph index. On a graph of at most WordMaxRels
	// relations, wordEdges[i] is edge i with its node set U ∪ V ∪ W, U
	// and V as words, and edgeNodes is empty; on a wider graph
	// edgeNodes[i] is U ∪ V ∪ W of edge i, and wordEdges is empty.
	// inc holds words uint64 words per memo entry, in arena-handle
	// order: inc[h*words:(h+1)*words] is inc(S) for the entry at handle
	// h, with bit i set iff edge i touches S. indexGraph writes the
	// relation rows, handles 0..n-1 (Init emits relation r as handle r),
	// and BuildPair appends the row of every entry it makes. dependent
	// reports whether some relation has free variables (§5.6).
	wordEdges []wordEdge
	edgeNodes []bitset.Set
	inc       []uint64
	words     int
	oneWord   bool
	dependent bool

	connBuf []EdgeRef
	flipBuf []EdgeRef
	edgeBuf []int
	ranks   []Rank
}

// WordMaxRels is the largest relation count whose runs pair edges as
// machine words: every relation set of such a graph fits one word
// (bitset.Set.Word), so pairEdges tests an edge's hypernodes against
// the pair's sides with word masks instead of bitset.Set calls. Where
// the memo table still hashes (above memo.DirectMaxRels relations), a
// paired probe on 2 CPUs (6 alternating rounds; the runs are recorded
// in CHANGES.md) read the word walk at 0.89× and 0.92× of the Set
// walk's time on Greedy's clique40 and clique20, and within noise on
// chain20 and chain64. Wider graphs, IterDP's 65–100-relation replays
// through PriceJoin, keep the Set walk.
const WordMaxRels = 64

// wordEdge is an edge of a graph of at most WordMaxRels relations in
// the form pairEdges walks: its node set U ∪ V ∪ W, U and V as words,
// its selectivity and its operator.
type wordEdge struct {
	nodes, u, v uint64
	sel         float64
	op          algebra.Op
}

// Rank is one candidate merge as GOO ranks it: the join cardinality
// JoinCard estimates, and whether an edge connects the two sides.
type Rank struct {
	Card      float64
	Connected bool
}

// Ranks returns storage for n rankings that stays with the builder, so
// a pooled engine recycles it like the other scratch buffers; storage
// more than memo's shrink factor too large is dropped. The contents are
// stale: the caller writes each ranking before reading it.
func (b *Builder) Ranks(n int) []Rank {
	b.ranks = slices.Grow(memo.Recycle(b.ranks, n), n)[:n]
	return b.ranks
}

// NewRun obtains an engine (recycled from pool when possible), resets it
// for a run over g, and attaches a Builder using the given cost model
// (cost.Default() if nil). entries is the number of memo entries the
// run makes, when the solver knows it (Options.Entries), and 0
// otherwise. Return the engine to the pool with pool.Put when the run's
// statistics have been read.
func NewRun(pool *memo.Pool, g *hypergraph.Graph, m cost.Model, entries int) (*memo.Engine, *Builder) {
	if m == nil {
		m = cost.Default()
	}
	e := pool.Get()
	e.Reset(g.NumRels())
	b, _ := e.Backend().(*Builder)
	if b == nil {
		b = &Builder{}
		e.SetBackend(b)
	}
	b.G, b.Model, b.Engine = g, m, e
	b.physical, _ = m.(cost.PhysicalModel)
	_, b.symmetric = m.(cost.Symmetric)
	b.indexGraph(entries)
	return e, b
}

// indexGraph builds the per-run graph index BuildPair reads: each edge,
// as words on a graph of at most WordMaxRels relations and as its node
// set otherwise, and the relation rows of inc. The rows are plain
// words, not bitset.Set: a row has one bit per edge, Greedy plans
// cliques of up to 64 relations (2016 edges), and Set operations
// allocate above 64 elements and stop at 1024. Their capacity covers
// the run's entries, or memo.EntryHint entries, the memo's own
// pre-size, when entries is 0, so a fresh engine does not regrow them
// by doubling. Their storage follows memo's shrink policy against the
// memo.EntryHint size, so a pooled engine that alternates a Greedy
// run's 2n−1 rows with an exact run's dense pre-size keeps its storage
// instead of reallocating it on every switch.
func (b *Builder) indexGraph(entries int) {
	g := b.G
	b.oneWord = g.NumRels() <= WordMaxRels
	b.wordEdges, b.edgeNodes = b.wordEdges[:0], b.edgeNodes[:0]
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(i)
		if !b.oneWord {
			b.edgeNodes = append(b.edgeNodes, ed.Nodes())
			continue
		}
		u, _ := ed.U.Word()
		v, _ := ed.V.Word()
		w, _ := ed.W.Word()
		b.wordEdges = append(b.wordEdges, wordEdge{nodes: u | v | w, u: u, v: v, sel: ed.Sel, op: ed.Op})
	}
	w := (g.NumEdges() + 63) / 64
	dense := memo.EntryHint(g.NumRels())
	if entries <= 0 {
		entries = dense
	}
	rows := slices.Grow(memo.Recycle(b.inc, dense*w), entries*w)[:g.NumRels()*w]
	clear(rows)
	for i, we := range b.wordEdges {
		for x := we.nodes; x != 0; x &= x - 1 {
			rows[bits.TrailingZeros64(x)*w+i/64] |= 1 << uint(i%64)
		}
	}
	for i, ns := range b.edgeNodes {
		for r := ns.NextElem(0); r >= 0; r = ns.NextElem(r + 1) {
			rows[r*w+i/64] |= 1 << uint(i%64)
		}
	}
	b.inc, b.words = rows, w
	b.dependent = false
	for i := 0; i < g.NumRels() && !b.dependent; i++ {
		b.dependent = !g.Relation(i).Free.IsEmpty()
	}
}

// row returns inc(S), the edges touching S, for the memo entry at arena
// handle h. The slice's max index bounds the read by the rows written,
// not by the pre-sized capacity, so a handle without a row panics
// instead of reading a stale one.
func (b *Builder) row(h int32) []uint64 {
	off := int(h) * b.words
	return b.inc[off : off+b.words : len(b.inc)]
}

// appendRow appends the row of the entry BuildPair just made for
// S1 ∪ S2 from its children's rows at handles lh and rh:
// inc(S1 ∪ S2) = inc(S1) ∪ inc(S2). A new entry's handle is the entry
// count before it (memo.Engine.Improve), so the row lands at its handle.
func (b *Builder) appendRow(lh, rh int32) {
	n := len(b.inc)
	if n+b.words > cap(b.inc) {
		b.growRows()
	}
	b.inc = b.inc[:n+b.words]
	row, l, r := b.inc[n:], b.row(lh), b.row(rh)
	for k := range row {
		row[k] = l[k] | r[k]
	}
}

// growRows makes room for one more row once a run outgrows its
// memo.EntryHint pre-size, at append's amortized growth rate.
//
//dp:coldpath amortized growth past the pre-size, O(log entries) calls per run
func (b *Builder) growRows() { b.inc = slices.Grow(b.inc, b.words) }

// NewBuilder returns a Builder over g with a fresh engine, for tests and
// tooling that drive plan construction directly. Production runs go
// through Run.
func NewBuilder(g *hypergraph.Graph, m cost.Model) *Builder {
	_, b := NewRun(nil, g, m, 0)
	return b
}

// Release drops the per-run references so a pooled engine does not pin
// the graph or model; the scratch buffers stay for the next run.
func (b *Builder) Release() {
	b.G = nil
	b.Model = nil
	b.physical = nil
	b.Filter = nil
	b.Engine = nil
	clear(b.edgeNodes)
	b.edgeNodes = b.edgeNodes[:0]
	b.connBuf = b.connBuf[:0]
	b.flipBuf = b.flipBuf[:0]
	b.edgeBuf = b.edgeBuf[:0]
}

// Init seeds the DP table with access plans for single relations
// ("dpTable[{v}] = plan for v"). A session arriving with its context
// already canceled (or its budget already spent by an earlier solver
// on the same engine) must not seed fresh entries, so the loop polls
// like every other emission loop.
//
//dp:hotpath
func (b *Builder) Init() {
	for i := 0; i < b.G.NumRels(); i++ {
		if !b.Engine.Step() {
			return
		}
		b.Engine.EmitBase(i, b.G.Relation(i).Card)
	}
}

// Best materializes the memoed plan for S, or nil. Intended for tests;
// the enumeration-side membership test is Engine.Contains.
func (b *Builder) Best(S bitset.Set) *plan.Node { return b.Engine.Plan(S) }

// Final returns the plan covering all relations, or an error when the
// enumeration could not connect the graph (the hypergraph was not
// Definition-3 connected, or every candidate plan was filtered out). A
// run that did not abort ends with exactly one incidence row per memo
// entry; any other count means an entry was made outside BuildPair, so
// rows and arena handles no longer line up, and Final panics.
func (b *Builder) Final() (*plan.Node, error) {
	if e := b.Engine; e.Aborted() == nil && len(b.inc) != e.Entries()*b.words {
		panic(fmt.Sprintf("dp: %d incidence words for %d memo entries of %d words",
			len(b.inc), e.Entries(), b.words))
	}
	return b.Engine.Final(b.G.AllNodes())
}

// BuildPair implements memo.Backend, following §3.5: it recovers the
// connecting edges and their predicates, resolves the operator, and
// prices one orientation for non-commutative operators or both for
// commutative ones. A pair with a side that has no memo entry, or
// without a connecting edge, is declined before Engine.ChargePair.
//
// Everything that does not depend on the orientation is done once per
// pair: both children are looked up, one walk over the edges both sides
// touch yields the applied edges and their selectivity product, the
// connecting edges and the operator, and the free tables of each side
// are computed only when the graph has dependent relations. An inner
// join under a cost.Symmetric model, on a run without dependent
// relations or a filter, is priced once (buildSymmetric). When the pair
// made S's memo entry, the entry's incidence row is appended.
//
//dp:hotpath
func (b *Builder) BuildPair(S1, S2 bitset.Set) bool {
	lh, lok := b.Engine.Lookup(S1)
	rh, rok := b.Engine.Lookup(S2)
	if !lok || !rok {
		return false
	}
	S := S1.Union(S2)
	sel, op, leftIsS1, ambiguous := b.pairEdges(S1, S2, S, lh, rh)
	if len(b.connBuf) == 0 || !b.Engine.ChargePair(S1, S2) {
		return false
	}
	if ambiguous {
		b.Engine.Stats.AmbiguousOps++
	}

	made := b.Engine.Entries()
	if op == algebra.Join && b.symmetric && !b.dependent && b.Filter == nil {
		b.buildSymmetric(S, S1, S2, lh, rh, sel)
	} else {
		l, r := side{rels: S1, h: lh}, side{rels: S2, h: rh}
		if b.dependent {
			l.free, r.free = b.G.FreeTables(S1), b.G.FreeTables(S2)
		}
		switch {
		case op.Commutative():
			b.tryBuild(S, &l, &r, op, sel, false)
			b.tryBuild(S, &r, &l, op, sel, true)
		case leftIsS1:
			b.tryBuild(S, &l, &r, op, sel, false)
		default:
			b.tryBuild(S, &r, &l, op, sel, true)
		}
	}
	if b.Engine.Entries() > made {
		b.appendRow(lh, rh)
	}
	return true
}

// buildSymmetric prices the inner join of S1 and S2, at arena handles lh
// and rh, with one cost call and stores it with one Engine.Improve,
// leaving the memo as pricing both orientations would. Both orientations
// get the same card and cost bits (cost.Symmetric), and among
// equal-cost candidates Improve keeps the smaller left side, so the join
// is stored as (S1, S2) when S1.Less(S2) and as (S2, S1) otherwise. A
// NaN cost replaces any incumbent, so the second orientation, (S2, S1),
// would win; it is stored that way. The second ChargePlan, after the
// write, counts the orientation that was not priced, so CostedPlans and
// the plan budget read as they do with two calls.
//
//dp:hotpath
func (b *Builder) buildSymmetric(S, S1, S2 bitset.Set, lh, rh int32, sel float64) {
	e := b.Engine
	if !e.ChargePlan() {
		return
	}
	lcard, lcost := e.PlanInfo(lh)
	rcard, rcost := e.PlanInfo(rh)
	card := cost.EstimateCard(algebra.Join, lcard, rcard, sel)
	phys, c := b.price(algebra.Join, lcost, rcost, lcard, rcard, card)
	if math.IsNaN(c) || S2.Less(S1) {
		lh, rh = rh, lh
	}
	e.Improve(S, lh, rh, algebra.Join, phys, card, c, b.edgeBuf)
	e.ChargePlan()
}

// PriceJoin prices the inner join of memoed left and right in that
// orientation from the edges it applies. Unlike BuildPair it charges no
// pair and needs no connecting edge: IterDP's compression can join sides
// that only a degraded hyperedge connected.
func (b *Builder) PriceJoin(left, right bitset.Set) {
	lh, lok := b.Engine.Lookup(left)
	rh, rok := b.Engine.Lookup(right)
	if !lok || !rok {
		panic(fmt.Sprintf("dp: PriceJoin(%v, %v) without memo entries", left, right))
	}
	S := left.Union(right)
	sel, _, _, _ := b.pairEdges(left, right, S, lh, rh)
	made := b.Engine.Entries()
	b.tryBuild(S, &side{rels: left, h: lh}, &side{rels: right, h: rh}, algebra.Join, sel, false)
	if b.Engine.Entries() > made {
		b.appendRow(lh, rh)
	}
}

// JoinCard returns the inner-join cardinality of memoed S1 and S2 from
// the edges the join applies, and whether an edge connects them: the
// walk BuildPair prices the pair from, so the estimate equals the card
// of an inner join BuildPair would store, hyperedges completed across
// split hypernodes included. It charges nothing (no pair, no plan, no
// AmbiguousOps) and stores nothing, so GOO ranks candidate merges with
// it.
//
//dp:hotpath
func (b *Builder) JoinCard(S1, S2 bitset.Set) (card float64, connected bool) {
	lh, lok := b.Engine.Lookup(S1)
	rh, rok := b.Engine.Lookup(S2)
	if !lok || !rok {
		panic("dp: JoinCard of a set without a memo entry")
	}
	sel, _, _, _ := b.pairEdges(S1, S2, S1.Union(S2), lh, rh)
	lcard, _ := b.Engine.PlanInfo(lh)
	rcard, _ := b.Engine.PlanInfo(rh)
	return cost.EstimateCard(algebra.Join, lcard, rcard, sel), len(b.connBuf) > 0
}

// pairEdges finds the edges of the pair (S1, S2) over S = S1 ∪ S2, whose
// memo entries sit at arena handles lh and rh. It leaves the applied
// edges in edgeBuf and the connecting edges in connBuf, and returns the
// applied edges' selectivity product, the operator, whether S1 is its
// left argument and whether it was ambiguous.
//
// Predicate application (§3.5): a predicate is evaluated at the first
// node that covers all relations it references. For simple edges this
// is the join separating the two endpoints, but a hyperedge can become
// fully covered at a join that splits its hypernodes across sides in a
// way that never satisfies u ⊆ S1 ∧ v ⊆ S2; its selectivity must still
// be charged exactly once. So every edge covered by S but by neither
// side alone is applied, which keeps cardinality estimates independent
// of the join order. Such an edge touches both disjoint sides, so it
// lies in inc(S1) ∩ inc(S2); conversely an edge in that intersection
// is applied iff S covers it. The walk therefore visits only inc(S1) ∩
// inc(S2), in ascending edge index: the selectivities multiply in the
// same order for every pair and orientation, so estimates are
// bit-identical however the pair was enumerated.
//
// Operator recovery (§5.4): every hyperedge carries the operator it was
// derived from. Simple predicate edges carry the inner join. At most
// one connecting edge should be non-inner for TES-derived graphs; if
// several are, the latest wins and ambiguous reports it.
//
// On a graph of at most WordMaxRels relations the walk reads the edges
// indexGraph recorded as words, and S1, S2 and S as words, so each
// hypernode test is one mask; a wider graph takes pairEdgesWide.
func (b *Builder) pairEdges(S1, S2, S bitset.Set, lh, rh int32) (sel float64, op algebra.Op, leftIsS1, ambiguous bool) {
	if !b.oneWord {
		return b.pairEdgesWide(S1, S2, S, lh, rh)
	}
	s1, _ := S1.Word()
	s2, _ := S2.Word()
	s, _ := S.Word()
	inc1, inc2 := b.row(lh), b.row(rh)
	sel, op, leftIsS1 = 1.0, algebra.Join, true
	applied := b.edgeBuf[:0]
	conn := b.connBuf[:0]
	nonInner := 0
	for k, x := range inc1 {
		for x &= inc2[k]; x != 0; x &= x - 1 {
			i := k*64 + bits.TrailingZeros64(x)
			ed := &b.wordEdges[i]
			if ed.nodes&^s != 0 {
				continue
			}
			sel *= ed.sel
			applied = append(applied, i)
			// A connecting edge (u ⊆ S1, v ⊆ S2, w ⊆ S, or flipped) has
			// its hypernodes on opposite sides, so it is always applied
			// too.
			var flipped bool
			switch {
			case ed.u&^s1 == 0 && ed.v&^s2 == 0:
			case ed.u&^s2 == 0 && ed.v&^s1 == 0:
				flipped = true
			default:
				continue
			}
			conn = append(conn, EdgeRef{Idx: i, Flipped: flipped})
			if ed.op != algebra.Join {
				nonInner++
				op = ed.op
				leftIsS1 = !flipped
			}
		}
	}
	b.edgeBuf, b.connBuf = applied, conn
	return sel, op, leftIsS1, nonInner > 1
}

// pairEdgesWide is pairEdges on a graph wider than WordMaxRels
// relations: the same walk, with the hypernode tests made on
// bitset.Set values.
func (b *Builder) pairEdgesWide(S1, S2, S bitset.Set, lh, rh int32) (sel float64, op algebra.Op, leftIsS1, ambiguous bool) {
	inc1, inc2 := b.row(lh), b.row(rh)
	sel, op, leftIsS1 = 1.0, algebra.Join, true
	applied := b.edgeBuf[:0]
	conn := b.connBuf[:0]
	nonInner := 0
	for k, x := range inc1 {
		for x &= inc2[k]; x != 0; x &= x - 1 {
			i := k*64 + bits.TrailingZeros64(x)
			if !b.edgeNodes[i].SubsetOf(S) {
				continue
			}
			ed := b.G.Edge(i)
			sel *= ed.Sel
			applied = append(applied, i)
			var flipped bool
			switch {
			case ed.U.SubsetOf(S1) && ed.V.SubsetOf(S2):
			case ed.U.SubsetOf(S2) && ed.V.SubsetOf(S1):
				flipped = true
			default:
				continue
			}
			conn = append(conn, EdgeRef{Idx: i, Flipped: flipped})
			if ed.Op != algebra.Join {
				nonInner++
				op = ed.Op
				leftIsS1 = !flipped
			}
		}
	}
	b.edgeBuf, b.connBuf = applied, conn
	return sel, op, leftIsS1, nonInner > 1
}

// side is one argument of a csg-cmp-pair: its relations, the arena
// handle of its best plan, and its free tables FT (empty when the graph
// has no dependent relations).
type side struct {
	rels bitset.Set
	h    int32
	free bitset.Set
}

// tryBuild prices "left op right" over S = left ∪ right with the pair's
// selectivity product and stores it through Engine.Improve if it beats
// the incumbent for S. swapped indicates that left is the pair's second
// side, so the EdgeRef.Flipped flags in connBuf are relative to the
// other orientation.
func (b *Builder) tryBuild(S bitset.Set, left, right *side, op algebra.Op, sel float64, swapped bool) {
	e := b.Engine
	// Dependency constraints (§5.6). The left argument must not reference
	// the right side; if the right side references the left, the operator
	// becomes its dependent counterpart.
	if left.free.Overlaps(right.rels) {
		e.Stats.InvalidReject++
		return
	}
	if right.free.Overlaps(left.rels) {
		op = op.DependentVariant()
		if !op.Valid() {
			e.Stats.InvalidReject++
			return
		}
	}

	if b.Filter != nil {
		fc := b.connBuf
		if swapped {
			fc = b.flipRefs(fc)
		}
		if !b.Filter(left.rels, right.rels, fc) {
			e.Stats.FilterReject++
			return
		}
	}

	if !e.ChargePlan() {
		return
	}
	lcard, lcost := e.PlanInfo(left.h)
	rcard, rcost := e.PlanInfo(right.h)
	card := cost.EstimateCard(op, lcard, rcard, sel)
	phys, c := b.price(op, lcost, rcost, lcard, rcard, card)
	e.Improve(S, left.h, right.h, op, phys, card, c, b.edgeBuf)
}

// price returns the total cost of "left op right" under the run's model,
// and the physical operator a cost.PhysicalModel chooses for it
// (PhysNone under any other model).
//
//dp:hotpath
func (b *Builder) price(op algebra.Op, lcost, rcost, lcard, rcard, card float64) (algebra.PhysOp, float64) {
	if b.physical != nil {
		return b.physical.ChooseJoin(op, lcost, rcost, lcard, rcard, card)
	}
	return algebra.PhysNone, b.Model.JoinCost(op, lcost, rcost, lcard, rcard, card)
}

// flipRefs inverts the Flipped flags into the reusable flip buffer.
func (b *Builder) flipRefs(conn []EdgeRef) []EdgeRef {
	out := b.flipBuf[:0]
	for _, r := range conn {
		out = append(out, EdgeRef{Idx: r.Idx, Flipped: !r.Flipped})
	}
	b.flipBuf = out
	return out
}
