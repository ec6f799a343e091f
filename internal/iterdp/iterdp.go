// Package iterdp implements the large-query planning tier: iterative
// dynamic programming by graph simplification, in the spirit of
// Kossmann and Stocker's IDP and Neumann's query-graph simplification.
//
// The exact enumerators explore the full cross-product-free bushy
// space, which is exponential in the number of relations; beyond a few
// dozen relations no budget makes them finish. This tier keeps the
// exact machinery but applies it piecewise: greedily merge the
// cheapest-joined neighboring vertices into clusters of at most
// ClusterSize relations, solve each multi-relation cluster EXACTLY with
// the existing engine, collapse every cluster to a single compound
// vertex whose cardinality is its subplan's estimate, and repeat on the
// compressed graph until it fits one final exact enumeration. The
// stitched plan is then priced through the plan builder: its joins are
// replayed bottom-up against the ORIGINAL graph (dp.Builder.PriceJoin),
// so every join applies, estimates and costs exactly as an exact
// solver's plan of the same tree would.
//
// The result is optimal within each exactly-solved subproblem but only
// heuristically good across cluster boundaries: the greedy clustering
// decides which relations may never be interleaved. That is the same
// trade every iterative-DP planner makes — the alternative for a
// 1000-relation query is a purely greedy plan with no optimal substructure
// at all.
//
// The package is deliberately ignorant of solver routing: callers
// inject the exact solver through Options.Exact, which keeps the
// dependency arrow pointing from the planning root down to this package
// and lets tests substitute an oracle-checked solver.
package iterdp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/plan"
)

// DefaultClusterSize is the subproblem budget when Options.ClusterSize
// is zero: subgraphs of up to 12 relations exact-solve in well under a
// millisecond on every topology (even a 12-clique emits only ~260k
// pairs), which keeps the whole tier inside an interactive budget for
// 1000-relation inputs.
const DefaultClusterSize = 12

// MaxClusterSize caps Options.ClusterSize: a 20-relation clique
// subproblem is already minutes of enumeration, far outside what a
// tier built for 100–1000-relation queries may spend on one cluster.
const MaxClusterSize = 20

// ErrStalled reports that the clustering could not compress the graph
// down to one final enumeration — the input was disconnected or held
// together only by hyperedges too wide to fold into any cluster. It
// wraps dp.ErrBudgetExhausted so the planner's existing greedy-fallback
// policy catches it: GOO handles those graphs, just without the exact
// subproblems.
var ErrStalled = fmt.Errorf("iterdp: clustering cannot compress the graph: %w", dp.ErrBudgetExhausted)

// ErrUnsupported reports a graph outside the tier's scope: non-inner
// operators or dependent relations, whose reordering constraints the
// compound vertices cannot represent. Like ErrStalled it wraps
// dp.ErrBudgetExhausted, degrading such queries to the GOO fallback
// (whose plan construction enforces those constraints pair by pair).
var ErrUnsupported = fmt.Errorf("iterdp: non-inner operators or dependent relations are beyond the simplification tier: %w", dp.ErrBudgetExhausted)

// Options configures one iterative-DP run.
type Options struct {
	// ClusterSize is the largest relation count handed to one exact
	// sub-enumeration (0 = DefaultClusterSize; capped at
	// MaxClusterSize).
	ClusterSize int
	// Model prices the final stitched plan (cost.Default() if nil). It
	// should match the model the Exact callback optimizes under.
	Model cost.Model
	// Pool, when non-nil, recycles the engine that prices the plan.
	Pool *memo.Pool
	// Exact solves one compressed subproblem optimally. Required. The
	// sub-hypergraph has at most ClusterSize relations and is connected;
	// the returned plan's leaves index the subgraph's relations.
	Exact func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error)
	// Ctx cancels the clustering loops between sub-solves (the Exact
	// callback is expected to carry its own cancellation).
	Ctx context.Context
	// Explain, when non-nil, receives one span per compression round
	// (clustering + exact sub-solves + compress, tagged with the round
	// index), one for the final enumeration over the compound vertices,
	// and one for pricing the stitched plan — never a span per
	// subproblem, so the trace of a 1000-relation run stays within its
	// fixed capacity.
	Explain *obs.Trace
}

// vertex is one node of the current compression level: the original
// relations it covers, its current cardinality estimate, and the plan
// tree (over original relation indices) that produces it.
type vertex struct {
	rels bitset.Set
	card float64
	pl   *plan.Node
}

// Solve plans g through iterative compression. The returned plan covers
// every relation of g and is priced against g under opts.Model by the
// plan builder, so its figures are comparable with exact-solver output.
func Solve(g *hypergraph.Graph, opts Options) (*plan.Node, dp.Stats, error) {
	var stats dp.Stats
	n := g.NumRels()
	if n == 0 {
		return nil, stats, fmt.Errorf("iterdp: empty graph")
	}
	if opts.Exact == nil {
		return nil, stats, fmt.Errorf("iterdp: Options.Exact is required")
	}
	cs := opts.ClusterSize
	if cs <= 0 {
		cs = DefaultClusterSize
	}
	if cs < 2 {
		cs = 2
	}
	if cs > MaxClusterSize {
		cs = MaxClusterSize
	}
	for i := 0; i < n; i++ {
		if !g.Relation(i).Free.IsEmpty() {
			return nil, stats, ErrUnsupported
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Op.RegularVariant() != algebra.Join {
			return nil, stats, ErrUnsupported
		}
	}

	// Level 0: every original relation is its own vertex.
	verts := make([]vertex, n)
	for i := 0; i < n; i++ {
		r := g.Relation(i)
		verts[i] = vertex{rels: bitset.Single(i), card: r.Card, pl: plan.Leaf(i, r.Card)}
	}
	cur := g

	for len(verts) > cs {
		if err := ctxErr(opts.Ctx); err != nil {
			return nil, stats, err
		}
		span := opts.Explain.Start(obs.PhaseCluster)
		opts.Explain.SetRound(span, stats.Rounds)
		pairsBefore, subsBefore := stats.CsgCmpPairs, stats.Subproblems
		groups := clusterRound(cur, verts, cs)
		merged := false
		for _, grp := range groups {
			if len(grp) > 1 {
				merged = true
				break
			}
		}
		if !merged {
			opts.Explain.End(span)
			return nil, stats, ErrStalled
		}
		next := make([]vertex, 0, len(groups))
		for _, grp := range groups {
			if len(grp) == 1 {
				next = append(next, verts[grp[0]])
				continue
			}
			sub := buildSubgraph(cur, verts, grp)
			sp, st, err := opts.Exact(sub)
			accumulate(&stats, st)
			if err != nil {
				opts.Explain.End(span)
				return nil, stats, fmt.Errorf("iterdp: subproblem of %d relations: %w", len(grp), err)
			}
			stats.Subproblems++
			next = append(next, vertex{
				rels: unionRels(verts, grp),
				card: vertexCard(sp.Card),
				pl:   expand(sp, grp, verts),
			})
		}
		cur = compress(cur, verts, groups, next)
		verts = next
		stats.Rounds++
		opts.Explain.Annotate(span, int64(stats.CsgCmpPairs-pairsBefore),
			len(verts), stats.Subproblems-subsBefore)
		opts.Explain.End(span)
	}

	var stitched *plan.Node
	if len(verts) == 1 {
		stitched = verts[0].pl
	} else {
		span := opts.Explain.Start(obs.PhaseEnumerate)
		pairsBefore := stats.CsgCmpPairs
		sp, st, err := opts.Exact(cur)
		accumulate(&stats, st)
		if err != nil {
			opts.Explain.End(span)
			return nil, stats, fmt.Errorf("iterdp: final enumeration over %d compound vertices: %w", len(verts), err)
		}
		stats.Subproblems++
		all := make([]int, len(verts))
		for i := range all {
			all[i] = i
		}
		stitched = expand(sp, all, verts)
		opts.Explain.Annotate(span, int64(stats.CsgCmpPairs-pairsBefore),
			st.TableEntries, 1)
		opts.Explain.End(span)
	}
	rspan := opts.Explain.Start(obs.PhaseRecost)
	final, st, err := price(g, stitched, opts)
	opts.Explain.End(rspan)
	stats.TableEntries = st.TableEntries
	return final, stats, err
}

// price replays the stitched plan's joins bottom-up through the plan
// builder over the original graph, making one memo entry per plan node,
// and returns the materialized plan. Only the context bounds it.
func price(g *hypergraph.Graph, stitched *plan.Node, opts Options) (*plan.Node, dp.Stats, error) {
	run := dp.Options{Model: opts.Model, Pool: opts.Pool, Limits: dp.Limits{Ctx: opts.Ctx},
		Entries: 2*g.NumRels() - 1}
	return dp.Run(g, run, func(b *dp.Builder) error {
		var replay func(n *plan.Node)
		replay = func(n *plan.Node) {
			if n.IsLeaf() {
				return
			}
			replay(n.Left)
			replay(n.Right)
			if b.Engine.Step() {
				b.PriceJoin(n.Left.Rels, n.Right.Rels)
			}
		}
		replay(stitched)
		return b.Engine.Aborted()
	})
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// vertexCard clamps a subplan's cardinality estimate into the finite,
// positive range hypergraph.AddRelation accepts. The estimate is an
// unclamped product, so a large cluster can overflow float64 to +Inf
// (DefaultConfig-style cardinalities do near 100 joins), underflow to
// 0, or meet both as NaN. Like compress's selectivity clamp, the value
// only steers later clustering and the compound-level enumeration:
// pricing the stitched plan re-derives every figure from the original
// graph.
func vertexCard(c float64) float64 {
	switch {
	case !(c > 0): // 0 after underflow, or NaN from 0·Inf
		return math.SmallestNonzeroFloat64
	case c > math.MaxFloat64:
		return math.MaxFloat64
	}
	return c
}

// accumulate folds one sub-enumeration's counters into the run total.
// Effort counters sum; capacity high-water marks take the max (each
// sub-solve recycles the same pooled engine).
func accumulate(total *dp.Stats, st dp.Stats) {
	total.CsgCmpPairs += st.CsgCmpPairs
	total.CostedPlans += st.CostedPlans
	total.FilterReject += st.FilterReject
	total.InvalidReject += st.InvalidReject
	total.AmbiguousOps += st.AmbiguousOps
	total.MemoCapacity = max(total.MemoCapacity, st.MemoCapacity)
	total.MemoGrows = max(total.MemoGrows, st.MemoGrows)
	total.ArenaNodes = max(total.ArenaNodes, st.ArenaNodes)
	total.ArenaReused = total.ArenaReused || st.ArenaReused
}

// clusterRound greedily merges adjacent vertices of cur into groups of
// at most cs members. Merging follows GOO's rule — always fuse the pair
// with the smallest estimated joint cardinality — so the relations most
// aggressively reduced by their join predicates end up optimized
// together inside one exact subproblem. Only simple edges drive merges:
// a simple edge between two clusters is internal to their union, which
// keeps every group connected in its induced subgraph. The result is a
// partition of [0, len(verts)) ordered by smallest member; members are
// ascending. Deterministic: candidate pairs are scanned in first-seen
// edge order with a (score, i, j) tie-break.
func clusterRound(cur *hypergraph.Graph, verts []vertex, cs int) [][]int {
	m := len(verts)
	parent := make([]int, m)
	size := make([]int, m)
	card := make([]float64, m)
	for i := range parent {
		parent[i] = i
		size[i] = 1
		card[i] = verts[i].card
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	type cand struct {
		a, b int // cluster roots, a < b
		sel  float64
	}
	for {
		// One pass over the edges: aggregate parallel simple edges
		// between the same cluster pair into a single candidate with the
		// product of their selectivities (each predicate applies once).
		idx := map[[2]int]int{}
		var cands []cand
		for i := 0; i < cur.NumEdges(); i++ {
			e := cur.Edge(i)
			if !e.Simple() {
				continue
			}
			a, b := find(e.U.Min()), find(e.V.Min())
			if a == b || size[a]+size[b] > cs {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if j, ok := idx[[2]int{a, b}]; ok {
				cands[j].sel *= e.Sel
			} else {
				idx[[2]int{a, b}] = len(cands)
				cands = append(cands, cand{a: a, b: b, sel: e.Sel})
			}
		}
		best, bestScore := -1, 0.0
		for j, c := range cands {
			score := cost.EstimateCard(algebra.Join, card[c.a], card[c.b], c.sel)
			if best < 0 || score < bestScore ||
				(score == bestScore && (c.a < cands[best].a ||
					(c.a == cands[best].a && c.b < cands[best].b))) {
				best, bestScore = j, score
			}
		}
		if best < 0 {
			break
		}
		c := cands[best]
		parent[c.b] = c.a
		size[c.a] += size[c.b]
		card[c.a] = bestScore
	}

	members := map[int][]int{}
	var order []int
	for i := 0; i < m; i++ { // ascending i ⇒ members ascending, roots by first member
		r := find(i)
		if len(members[r]) == 0 {
			order = append(order, r)
		}
		members[r] = append(members[r], i)
	}
	groups := make([][]int, 0, len(order))
	for _, r := range order {
		groups = append(groups, members[r])
	}
	return groups
}

// buildSubgraph induces the subproblem for one group: its vertices
// become relations 0..len(grp)-1 with their current cardinalities, and
// every edge of cur that lies entirely inside the group is remapped.
func buildSubgraph(cur *hypergraph.Graph, verts []vertex, grp []int) *hypergraph.Graph {
	sub := hypergraph.New()
	local := make(map[int]int, len(grp))
	for si, vi := range grp {
		local[vi] = si
		sub.AddRelation(fmt.Sprintf("C%d", vi), verts[vi].card)
	}
	inGroup := bitset.New(grp...)
	for i := 0; i < cur.NumEdges(); i++ {
		e := cur.Edge(i)
		if !e.Nodes().SubsetOf(inGroup) {
			continue
		}
		sub.AddEdge(hypergraph.Edge{
			U:   remap(e.U, local),
			V:   remap(e.V, local),
			W:   remap(e.W, local),
			Sel: e.Sel,
			Op:  e.Op,
		})
	}
	return sub
}

// remap translates a node set of the outer graph into subgraph indices.
func remap(s bitset.Set, local map[int]int) bitset.Set {
	out := bitset.Empty
	s.ForEach(func(e int) { out = out.Add(local[e]) })
	return out
}

// unionRels unions the original-relation coverage of a group.
func unionRels(verts []vertex, grp []int) bitset.Set {
	out := bitset.Empty
	for _, vi := range grp {
		out = out.Union(verts[vi].rels)
	}
	return out
}

// expand replaces each leaf of a subproblem plan (indexing grp) with the
// plan tree of the underlying vertex. It keeps only the tree's shape:
// Solve prices the stitched plan against the original graph.
func expand(sp *plan.Node, grp []int, verts []vertex) *plan.Node {
	if sp.IsLeaf() {
		return verts[grp[sp.Rel]].pl
	}
	l := expand(sp.Left, grp, verts)
	r := expand(sp.Right, grp, verts)
	return &plan.Node{
		Op:   sp.Op,
		Left: l, Right: r,
		Rel:  -1,
		Rels: l.Rels.Union(r.Rels),
	}
}

// compress builds the next-level graph: one relation per group, and one
// aggregated simple edge per connected group pair (parallel edges
// collapse into a selectivity product; edges internal to a group were
// consumed by its subproblem). Hyperedges spanning several groups
// degrade to a simple edge between the groups holding their U- and
// V-minima — an approximation, but one that only steers the NEXT
// round's clustering and final enumeration; the predicate itself is
// applied exactly when the stitched plan is priced against the original
// graph.
func compress(cur *hypergraph.Graph, verts []vertex, groups [][]int, next []vertex) *hypergraph.Graph {
	ng := hypergraph.New()
	for i, v := range next {
		ng.AddRelation(fmt.Sprintf("G%d", i), v.card)
	}
	groupOf := make([]int, len(verts))
	for gi, grp := range groups {
		for _, vi := range grp {
			groupOf[vi] = gi
		}
	}
	idx := map[[2]int]int{}
	var pairs [][2]int
	sels := []float64{}
	for i := 0; i < cur.NumEdges(); i++ {
		e := cur.Edge(i)
		a, b := groupOf[e.U.Min()], groupOf[e.V.Min()]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if j, ok := idx[[2]int{a, b}]; ok {
			sels[j] *= e.Sel
		} else {
			idx[[2]int{a, b}] = len(pairs)
			pairs = append(pairs, [2]int{a, b})
			sels = append(sels, e.Sel)
		}
	}
	for j, p := range pairs {
		// Dense graphs can collapse hundreds of parallel edges into one
		// pair; the selectivity product then underflows float64 to 0,
		// which AddEdge rejects. Clamp to the smallest positive value —
		// compression selectivities only steer clustering and the
		// compound-level enumeration, and pricing the stitched plan
		// applies every original edge exactly.
		if sels[j] <= 0 {
			sels[j] = math.SmallestNonzeroFloat64
		}
		ng.AddSimpleEdge(p[0], p[1], sels[j])
	}
	return ng
}
