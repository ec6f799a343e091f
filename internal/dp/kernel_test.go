package dp_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/dpccp"
	"repro/internal/dpsize"
	"repro/internal/dpsub"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/iterdp"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// namedGraph is a test graph and the name its subtests carry.
type namedGraph struct {
	name string
	g    *hypergraph.Graph
}

// kernelGraphs returns the graphs the pricing kernel is checked on:
// simple edges, hyperedges and generalized edges (W ≠ ∅), non-inner
// operators, dependent relations, incidence rows of one, two, three and
// seventeen words, more memo entries than the rows are pre-sized for,
// and sets wider than one word.
func kernelGraphs() []namedGraph {
	rng := rand.New(rand.NewSource(22))
	cfg := workload.DefaultConfig()
	dep := workload.RandomSimple(rng, 10, 6, cfg)
	dep.SetFree(7, bitset.New(2))
	dep.SetFree(4, bitset.New(1, 8))
	return []namedGraph{
		{"simple10", workload.RandomSimple(rng, 10, 12, cfg)},
		{"hyper10", workload.RandomHyper(rng, 10, 10, cfg)},
		{"generalized-ops10", kernelGraph(rng, 10, false, 12)},
		{"dependent10", dep},
		{"clique10-hyper", kernelGraph(rng, 10, true, 40)},        // 85 edges, two words
		{"clique10-wide", kernelGraph(rng, 10, true, 100)},        // 145 edges, three words
		{"clique12", workload.Clique(12, cfg)},                    // 66 edges, two words
		{"star13", workload.Star(13, cfg)},                        // 4108 connected sets
		{"chain100", workload.Chain(100, workload.LargeConfig())}, // sets wider than a word
		{"clique46", workload.Clique(46, cfg)},                    // 1035 edges, seventeen words
	}
}

// kernelGraph returns an n-relation graph: a clique of simple inner-join
// edges when clique is set, otherwise a random spanning tree of simple
// edges with random operators, plus extra hyperedges whose hypernodes,
// free sides and operators are random.
func kernelGraph(rng *rand.Rand, n int, clique bool, extra int) *hypergraph.Graph {
	ops := []algebra.Op{algebra.Join, algebra.Join, algebra.LeftOuter, algebra.AntiJoin, algebra.SemiJoin, algebra.FullOuter}
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), 10+rng.Float64()*1000)
	}
	sel := func() float64 { return 0.001 + rng.Float64()*0.5 }
	for i := 1; i < n; i++ {
		if clique {
			for j := 0; j < i; j++ {
				g.AddSimpleEdge(j, i, sel())
			}
			continue
		}
		g.AddEdge(hypergraph.Edge{U: bitset.Single(rng.Intn(i)), V: bitset.Single(i), Sel: sel(), Op: ops[rng.Intn(len(ops))]})
	}
	for added := 0; added < extra; {
		var u, v, w bitset.Set
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0:
				u = u.Add(i)
			case 1:
				v = v.Add(i)
			case 2:
				if rng.Intn(2) == 0 {
					w = w.Add(i)
				}
			}
		}
		if u.IsEmpty() || v.IsEmpty() {
			continue
		}
		g.AddEdge(hypergraph.Edge{U: u, V: v, W: w, Sel: sel(), Op: ops[rng.Intn(len(ops))]})
		added++
	}
	return g
}

// pairScan is what the pricing kernel derives for one pair.
type pairScan struct {
	applied  []int
	conn     []dp.EdgeRef
	sel      float64
	op       algebra.Op
	leftIsS1 bool
	nonInner int
}

// scanPair is the reference kernel: a scan over every edge of g, the
// loop BuildPair ran before it walked the incidence rows.
func scanPair(g *hypergraph.Graph, S1, S2 bitset.Set) pairScan {
	S := S1.Union(S2)
	r := pairScan{sel: 1, op: algebra.Join, leftIsS1: true}
	for i := 0; i < g.NumEdges(); i++ {
		ed := g.Edge(i)
		nodes := ed.Nodes()
		if !nodes.SubsetOf(S) || nodes.SubsetOf(S1) || nodes.SubsetOf(S2) {
			continue
		}
		r.sel *= ed.Sel
		r.applied = append(r.applied, i)
		var flipped bool
		switch {
		case ed.U.SubsetOf(S1) && ed.V.SubsetOf(S2):
		case ed.U.SubsetOf(S2) && ed.V.SubsetOf(S1):
			flipped = true
		default:
			continue
		}
		r.conn = append(r.conn, dp.EdgeRef{Idx: i, Flipped: flipped})
		if ed.Op != algebra.Join {
			r.nonInner++
			r.op = ed.Op
			r.leftIsS1 = !flipped
		}
	}
	return r
}

// randomPair splits a random subset of n relations into two disjoint
// non-empty sides.
func randomPair(rng *rand.Rand, n int) (S1, S2 bitset.Set) {
	p := 0.05 + rng.Float64()*0.9
	for S1.IsEmpty() || S2.IsEmpty() {
		S1, S2 = bitset.Set{}, bitset.Set{}
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				if rng.Intn(2) == 0 {
					S1 = S1.Add(i)
				} else {
					S2 = S2.Add(i)
				}
			}
		}
	}
	return S1, S2
}

// ensureEntry stores a placeholder memo entry for S when it has none,
// with the incidence row BuildPair would have given it: the kernel reads
// only the entry's handle and row.
func ensureEntry(b *dp.Builder, S bitset.Set) {
	if !b.Engine.Contains(S) {
		b.Engine.Improve(S, 0, 0, algebra.Join, algebra.PhysNone, 1, 1, nil)
		b.AppendRowOf(S)
	}
}

// TestPairEdgesMatchScan prices random pairs of every corpus graph with
// the incidence kernel and with the reference scan: the applied edges,
// the connecting edges with their flips, the operator and its side, the
// ambiguity flag and the selectivity bits must agree. Every pair is
// priced twice, so a walk that disturbs the rows or buffers it reuses
// shows on the second pass.
func TestPairEdgesMatchScan(t *testing.T) {
	for _, kg := range kernelGraphs() {
		t.Run(kg.name, func(t *testing.T) {
			g := kg.g
			b := dp.NewBuilder(g, cost.Cout{})
			b.Init()
			rng := rand.New(rand.NewSource(int64(g.NumEdges())))
			connected := 0
			for trial := 0; trial < 400; trial++ {
				S1, S2 := randomPair(rng, g.NumRels())
				want := scanPair(g, S1, S2)
				if len(want.conn) > 0 {
					connected++
				}
				ensureEntry(b, S1)
				ensureEntry(b, S2)
				for pass := 0; pass < 2; pass++ {
					applied, conn, sel, op, leftIsS1, ambiguous := b.PairEdges(S1, S2)
					if !slices.Equal(applied, want.applied) || !slices.Equal(conn, want.conn) {
						t.Fatalf("(%v, %v) pass %d: applied %v conn %v, scan applies %v conn %v",
							S1, S2, pass, applied, conn, want.applied, want.conn)
					}
					if math.Float64bits(sel) != math.Float64bits(want.sel) || op != want.op || leftIsS1 != want.leftIsS1 {
						t.Fatalf("(%v, %v) pass %d: sel %v op %v leftIsS1 %v, scan gives %v %v %v",
							S1, S2, pass, sel, op, leftIsS1, want.sel, want.op, want.leftIsS1)
					}
					if ambiguous != (want.nonInner > 1) {
						t.Fatalf("(%v, %v): ambiguous %v, scan finds %d non-inner connecting edges",
							S1, S2, ambiguous, want.nonInner)
					}
				}
			}
			if connected == 0 {
				t.Error("no random pair was connected, so no edge was ever applied")
			}
		})
	}
}

// TestPlansApplyScannedEdges plans the corpus graphs of up to 10
// relations and star13 with every exact solver, DPccp only on graphs
// without hyperedges, every graph with Greedy, and every inner-join
// graph without dependent relations with IterDP, whose clusters of at
// most 4 relations make it price a stitched plan through PriceJoin.
// Each solver makes memo entries, and so incidence rows, in its own
// order. Except on star13, the runs share one engine pool, so rows may
// be recycled from a run over another graph. Every join must apply
// exactly the edges the reference scan finds for its two inputs, with
// the cardinality their selectivity product gives.
func TestPlansApplyScannedEdges(t *testing.T) {
	shared := &memo.Pool{}
	check := func(t *testing.T, g *hypergraph.Graph, solve solveFunc, pool *memo.Pool) {
		p, _, err := solve(g, dp.Options{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		checkPlanEdges(t, g, p)
	}
	for _, kg := range kernelGraphs() {
		t.Run(kg.name, func(t *testing.T) {
			g := kg.g
			g.Freeze()
			pool, exactRuns := shared, g.NumRels() <= 10
			if kg.name == "star13" {
				// Fresh engines pre-size the rows for exactly
				// memo.EntryHint(13) = 4096 entries, so star13's 4108
				// connected sets make every exact run grow them.
				pool, exactRuns = nil, true
			}
			if exactRuns {
				for _, s := range exactSolvers {
					if s.name == "dpccp" && g.HasHyperedges() {
						continue
					}
					t.Run(s.name, func(t *testing.T) { check(t, g, s.solve, pool) })
				}
			}
			t.Run("greedy", func(t *testing.T) { check(t, g, goo.Solve, pool) })
			if innerOnly(g) {
				t.Run("iterdp", func(t *testing.T) { check(t, g, iterDP, pool) })
			}
		})
	}
}

type solveFunc func(*hypergraph.Graph, dp.Options) (*plan.Node, dp.Stats, error)

// exactSolvers are the exact enumerators; DPccp plans simple graphs
// only.
var exactSolvers = []struct {
	name  string
	solve solveFunc
}{
	{"dphyp", core.Solve},
	{"dpsize", dpsize.Solve},
	{"dpsub", dpsub.Solve},
	{"dpccp", dpccp.Solve},
	{"topdown", topdown.Solve},
}

// iterDP runs IterDP with clusters of at most 4 relations and DPhyp
// for the subproblems.
func iterDP(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return iterdp.Solve(g, iterdp.Options{
		ClusterSize: 4,
		Model:       opts.Model,
		Pool:        opts.Pool,
		Exact: func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error) {
			sub.Freeze()
			return core.Solve(sub, dp.Options{Model: opts.Model, Pool: opts.Pool})
		},
	})
}

// innerOnly reports whether g has only inner-join edges and no
// dependent relations, the graphs IterDP plans.
func innerOnly(g *hypergraph.Graph) bool {
	for i := 0; i < g.NumRels(); i++ {
		if !g.Relation(i).Free.IsEmpty() {
			return false
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Op != algebra.Join {
			return false
		}
	}
	return true
}

// checkPlanEdges compares every join of p with the reference scan.
func checkPlanEdges(t *testing.T, g *hypergraph.Graph, p *plan.Node) {
	t.Helper()
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			return
		}
		want := scanPair(g, n.Left.Rels, n.Right.Rels)
		card := cost.EstimateCard(n.Op, n.Left.Card, n.Right.Card, want.sel)
		if !slices.Equal(n.Edges, want.applied) || math.Float64bits(n.Card) != math.Float64bits(card) {
			t.Errorf("join %v ⋈ %v applies %v with card %v, scan applies %v with card %v",
				n.Left.Rels, n.Right.Rels, n.Edges, n.Card, want.applied, card)
		}
	})
}
