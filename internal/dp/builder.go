// Package dp provides the plan-construction semantics shared by all
// join enumeration algorithms in this repository (DPhyp, DPsize, DPsub,
// DPccp, TopDown, and the GOO fallback).
//
// Storage and accounting live one layer down, in internal/memo: the
// open-addressing DP table, the flat plan-node arena, budget and
// cancellation enforcement, and the counting hooks. This package
// contributes the Backend the engine calls for every admitted
// csg-cmp-pair: Builder implements the plan-construction logic of
// EmitCsgCmp (§3.5) — recovering the operator attached to the connecting
// hyperedges (§5.4), switching to dependent variants when the right side
// references the left (§5.6), applying the optional generate-and-test
// filter (the TES-check alternative measured in Fig. 8a), estimating
// cardinalities, and costing both orientations of commutative operators
// — and materializes the winning plan tree out of the engine's arena.
//
// A pair is priced from the edges both of its sides touch, never from a
// scan over every edge. An edge applied at the join of disjoint S1 and
// S2 touches both sides, so it lies in inc(S1) ∩ inc(S2), where inc(S)
// is the set of edges touching S; an edge in that intersection is
// applied iff S1 ∪ S2 covers it. Each run builds an edge-incidence
// matrix, and each memo entry's inc(S) is derived from it at most once
// per run and cached by arena handle. The walk is in ascending edge
// index, so estimates are bit-identical across solvers and
// orientations.
//
// The package also holds the run contract the solvers share: Options
// configures any of them, and Run does the set-up and epilogue of every
// run, so a solver contributes only its enumeration order.
package dp

import (
	"fmt"
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

	// The per-run graph index. edgeNodes[i] is U ∪ V ∪ W of edge i.
	// incRows is the edge-incidence matrix, words uint64 words per
	// relation: bit i of relation r's row is set iff edge i touches r.
	// dependent reports whether some relation has free variables (§5.6).
	// NewRun derives all of it from the graph once per run, and nothing
	// writes it during the run.
	edgeNodes []bitset.Set
	incRows   []uint64
	words     int
	dependent bool

	// The incidence cache: incCache[h*words:(h+1)*words] holds inc(S), the
	// edges touching S, for the memo entry at arena handle h, and is valid
	// iff incStamp[h] equals incRun, which changes every run.
	incCache []uint64
	incStamp []uint32
	incRun   uint32

	connBuf []EdgeRef
	flipBuf []EdgeRef
	edgeBuf []int
}

// NewRun obtains an engine (recycled from pool when possible), resets it
// for a run over g, and attaches a Builder using the given cost model
// (cost.Default() if nil). Return the engine to the pool with pool.Put
// when the run's statistics have been read.
func NewRun(pool *memo.Pool, g *hypergraph.Graph, m cost.Model) (*memo.Engine, *Builder) {
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
	b.indexGraph()
	return e, b
}

// indexGraph builds the per-run graph index BuildPair reads: each edge's
// node set and the edge-incidence matrix. The rows are plain words, not
// bitset.Set: a row has one bit per edge, Greedy plans cliques of up to
// 64 relations (2016 edges), and Set operations allocate above 64
// elements and stop at 1024.
func (b *Builder) indexGraph() {
	g := b.G
	nodes := b.edgeNodes[:0]
	for i := 0; i < g.NumEdges(); i++ {
		nodes = append(nodes, g.Edge(i).Nodes())
	}
	b.edgeNodes = nodes
	b.words = (len(nodes) + 63) / 64
	size := g.NumRels() * b.words
	rows := slices.Grow(memo.Recycle(b.incRows, size), size)[:size]
	clear(rows)
	for i, ns := range nodes {
		for r := ns.NextElem(0); r >= 0; r = ns.NextElem(r + 1) {
			rows[r*b.words+i/64] |= 1 << uint(i%64)
		}
	}
	b.incRows = rows
	b.dependent = false
	for i := 0; i < g.NumRels() && !b.dependent; i++ {
		b.dependent = !g.Relation(i).Free.IsEmpty()
	}
	b.resetIncCache()
}

// resetIncCache empties the incidence cache for a new run by moving to
// the next run stamp. It covers the run's memo.EntryHint handles from
// the start, the memo's own pre-size, so a fresh engine does not regrow
// it by doubling; its storage follows memo's shrink policy. Stamps left
// from earlier runs differ from the new one, so their rows read as not
// derived.
func (b *Builder) resetIncCache() {
	hint := memo.EntryHint(b.G.NumRels())
	b.incStamp = slices.Grow(memo.Recycle(b.incStamp, hint), hint)[:hint]
	b.incCache = slices.Grow(memo.Recycle(b.incCache, hint*b.words), hint*b.words)[:hint*b.words]
	b.incRun++
	if b.incRun == 0 {
		// The stamp wrapped: a row stamped 2^32 runs ago would read as
		// valid.
		clear(b.incStamp[:cap(b.incStamp)])
		b.incRun = 1
	}
}

// growIncCache extends the incidence cache to cover arena handle h,
// doubling so a run grows it O(log entries) times. Exposed stamps are
// zero or from an earlier run, so the new rows read as not derived.
//
//dp:coldpath amortized growth, O(log entries) calls per run
func (b *Builder) growIncCache(h int) {
	n := max(h+1, 2*len(b.incStamp))
	b.incStamp = slices.Grow(b.incStamp, n-len(b.incStamp))[:n]
	b.incCache = slices.Grow(b.incCache, n*b.words-len(b.incCache))[:n*b.words]
}

// incidence returns inc(S), the edges touching S, for the memo entry at
// arena handle h, which the cache must already cover. The row is derived
// from the relation rows the first time the entry is asked for in the
// run.
func (b *Builder) incidence(h int32, S bitset.Set) []uint64 {
	w := b.words
	row := b.incCache[int(h)*w : int(h)*w+w]
	if b.incStamp[h] != b.incRun {
		b.deriveInc(row, S)
		b.incStamp[h] = b.incRun
	}
	return row
}

// deriveInc writes inc(S), the union of S's relation rows, into row.
func (b *Builder) deriveInc(row []uint64, S bitset.Set) {
	w := b.words
	clear(row)
	for r := S.NextElem(0); r >= 0; r = S.NextElem(r + 1) {
		for i, x := range b.incRows[r*w : r*w+w] {
			row[i] |= x
		}
	}
}

// MayReject reports whether pricing a csg-cmp-pair can leave its
// relation set without a plan: a generate-and-test filter, or a
// dependency constraint (§5.6) when some relation has free variables,
// may reject both orientations.
func (b *Builder) MayReject() bool { return b.Filter != nil || b.dependent }

// NewBuilder returns a Builder over g with a fresh engine, for tests and
// tooling that drive plan construction directly. Production runs go
// through Run.
func NewBuilder(g *hypergraph.Graph, m cost.Model) *Builder {
	_, b := NewRun(nil, g, m)
	return b
}

// Release drops the per-run references so a pooled engine does not pin
// the graph or model; the scratch buffers stay for the next run.
func (b *Builder) Release() {
	b.G = nil
	b.Model = nil
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
// Definition-3 connected, or every candidate plan was filtered out).
func (b *Builder) Final() (*plan.Node, error) {
	return b.Engine.Final(b.G.AllNodes())
}

// BuildPair implements memo.Backend, following §3.5: it recovers the
// connecting edges and their predicates, resolves the operator, and
// prices one orientation for non-commutative operators or both for
// commutative ones. Budget and emission bookkeeping has already happened
// in Engine.EmitPair.
//
// Everything that does not depend on the orientation is done once per
// pair: both children are looked up, one walk over the edges both sides
// touch yields the applied edges and their selectivity product, the
// connecting edges and the operator, and the free tables of each side
// are computed only when the graph has dependent relations.
//
//dp:hotpath
func (b *Builder) BuildPair(S1, S2 bitset.Set) {
	lh, lok := b.Engine.Lookup(S1)
	rh, rok := b.Engine.Lookup(S2)
	if !lok || !rok {
		panic(fmt.Sprintf("dp: missing subplan for %v or %v", S1, S2))
	}
	S := S1.Union(S2)
	sel, op, leftIsS1 := b.pairEdges(S1, S2, S, lh, rh)
	if len(b.connBuf) == 0 {
		// Not a csg-cmp-pair; callers are expected to have checked, so
		// this indicates an enumeration bug.
		panic(fmt.Sprintf("dp: EmitPair(%v,%v) without connecting edge", S1, S2))
	}
	l, r := side{rels: S1, h: lh}, side{rels: S2, h: rh}
	if b.dependent {
		l.free, r.free = b.G.FreeTables(S1), b.G.FreeTables(S2)
	}

	if op.Commutative() {
		b.tryBuild(S, &l, &r, op, sel, false)
		b.tryBuild(S, &r, &l, op, sel, true)
		return
	}
	if leftIsS1 {
		b.tryBuild(S, &l, &r, op, sel, false)
	} else {
		b.tryBuild(S, &r, &l, op, sel, true)
	}
}

// pairEdges finds the edges of the pair (S1, S2) over S = S1 ∪ S2, whose
// memo entries sit at arena handles lh and rh. It leaves the applied
// edges in edgeBuf and the connecting edges in connBuf, and returns the
// applied edges' selectivity product, the operator and whether S1 is
// that operator's left argument.
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
// several are, the latest wins and the event is counted.
func (b *Builder) pairEdges(S1, S2, S bitset.Set, lh, rh int32) (sel float64, op algebra.Op, leftIsS1 bool) {
	if hi := int(max(lh, rh)); hi >= len(b.incStamp) {
		b.growIncCache(hi)
	}
	inc1, inc2 := b.incidence(lh, S1), b.incidence(rh, S2)
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
			// A connecting edge (u ⊆ S1, v ⊆ S2, w ⊆ S, or flipped) has
			// its hypernodes on opposite sides, so it is always applied
			// too.
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
	if nonInner > 1 {
		b.Engine.Stats.AmbiguousOps++
	}
	return sel, op, leftIsS1
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
	var (
		c    float64
		phys algebra.PhysOp
	)
	if pm, ok := b.Model.(cost.PhysicalModel); ok {
		phys, c = pm.ChooseJoin(op, lcost, rcost, lcard, rcard, card)
	} else {
		c = b.Model.JoinCost(op, lcost, rcost, lcard, rcard, card)
	}

	e.Improve(S, left.h, right.h, op, phys, card, c, b.edgeBuf)
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
