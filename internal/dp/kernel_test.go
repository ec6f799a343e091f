package dp_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/dpsub"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/workload"
)

// kernelGraphs returns the graphs the pricing kernel is checked on:
// simple edges, hyperedges and generalized edges (W ≠ ∅), non-inner
// operators, dependent relations, incidence rows of one, two, three and
// seventeen words, and sets wider than one word.
func kernelGraphs() []struct {
	name string
	g    *hypergraph.Graph
} {
	rng := rand.New(rand.NewSource(22))
	cfg := workload.DefaultConfig()
	dep := workload.RandomSimple(rng, 10, 6, cfg)
	dep.SetFree(7, bitset.New(2))
	dep.SetFree(4, bitset.New(1, 8))
	return []struct {
		name string
		g    *hypergraph.Graph
	}{
		{"simple10", workload.RandomSimple(rng, 10, 12, cfg)},
		{"hyper10", workload.RandomHyper(rng, 10, 10, cfg)},
		{"generalized-ops10", kernelGraph(rng, 10, false, 12)},
		{"dependent10", dep},
		{"clique10-hyper", kernelGraph(rng, 10, true, 40)},        // 85 edges, two words
		{"clique10-wide", kernelGraph(rng, 10, true, 100)},        // 145 edges, three words
		{"clique12", workload.Clique(12, cfg)},                    // 66 edges, two words
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

// ensureEntry stores a placeholder memo entry for S when it has none:
// the kernel reads only the entry's handle.
func ensureEntry(b *dp.Builder, S bitset.Set) {
	if !b.Engine.Contains(S) {
		b.Engine.Improve(S, 0, 0, algebra.Join, algebra.PhysNone, 1, 1, nil)
	}
}

// TestPairEdgesMatchScan prices random pairs of every corpus graph with
// the incidence kernel and with the reference scan: the applied edges,
// the connecting edges with their flips, the operator and its side, the
// ambiguity count and the selectivity bits must agree. Every pair is
// priced twice, the second time from the incidence cache.
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
					amb := b.Engine.Stats.AmbiguousOps
					applied, conn, sel, op, leftIsS1 := b.PairEdges(S1, S2)
					if !slices.Equal(applied, want.applied) || !slices.Equal(conn, want.conn) {
						t.Fatalf("(%v, %v) pass %d: applied %v conn %v, scan applies %v conn %v",
							S1, S2, pass, applied, conn, want.applied, want.conn)
					}
					if math.Float64bits(sel) != math.Float64bits(want.sel) || op != want.op || leftIsS1 != want.leftIsS1 {
						t.Fatalf("(%v, %v) pass %d: sel %v op %v leftIsS1 %v, scan gives %v %v %v",
							S1, S2, pass, sel, op, leftIsS1, want.sel, want.op, want.leftIsS1)
					}
					if counted := b.Engine.Stats.AmbiguousOps > amb; counted != (want.nonInner > 1) {
						t.Fatalf("(%v, %v): AmbiguousOps counted %v, scan finds %d non-inner connecting edges",
							S1, S2, counted, want.nonInner)
					}
				}
			}
			if connected == 0 {
				t.Error("no random pair was connected, so no edge was ever applied")
			}
		})
	}
}

// TestIncidenceLevelLocal checks that a worker never serves one set's
// row for another under the same handle. Both workers' first entries of
// a level get the level's base handle; after the barrier merges them in
// set order, that handle names the smaller set, which the worker that
// stored the larger one must then see with its own row.
func TestIncidenceLevelLocal(t *testing.T) {
	g := workload.Clique(12, workload.DefaultConfig())
	b := dp.NewBuilder(g, cost.Cout{})
	b.Init()
	pr := dp.NewParRun(b, 2)
	pr.Par.StartLevel()
	small, large := bitset.New(0, 1), bitset.New(5, 9)
	w0, w1 := pr.Bs[0], pr.Bs[1]
	w0.Engine.Improve(large, 0, 0, algebra.Join, algebra.PhysNone, 1, 1, nil)
	w1.Engine.Improve(small, 0, 0, algebra.Join, algebra.PhysNone, 1, 1, nil)
	h, _ := w0.Engine.Lookup(large)
	checkIncidence(t, g, w0.Incidence(h, large), large)
	pr.Par.FinishLevel()
	pr.Par.StartLevel()
	if hs, _ := w0.Engine.Lookup(small); hs != h {
		t.Fatalf("merged handle of %v is %d, want %d", small, hs, h)
	}
	checkIncidence(t, g, w0.Incidence(h, small), small)
}

// checkIncidence compares a row with the edges of g that touch S.
func checkIncidence(t *testing.T, g *hypergraph.Graph, got []uint64, S bitset.Set) {
	t.Helper()
	want := make([]uint64, (g.NumEdges()+63)/64)
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Nodes().Overlaps(S) {
			want[i/64] |= 1 << uint(i%64)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("inc(%v) = %x, want %x", S, got, want)
	}
}

// TestPlansApplyScannedEdges plans the corpus graphs of up to 10
// relations with DPsub at 1, 2 and 4 workers, so each worker prices
// through its own incidence cache, and every graph with Greedy. All runs
// share one engine pool, so a cache may be recycled from a run over
// another graph. Every join must apply exactly the edges the reference
// scan finds for its two inputs, with the cardinality their selectivity
// product gives, and the worker counts must agree on the plan.
func TestPlansApplyScannedEdges(t *testing.T) {
	pool := &memo.Pool{}
	for _, kg := range kernelGraphs() {
		t.Run(kg.name, func(t *testing.T) {
			g := kg.g
			g.Freeze()
			if g.NumRels() <= 10 {
				var serial string
				for _, workers := range []int{1, 2, 4} {
					p, st, err := dpsub.Solve(g, dp.Options{Pool: pool, Parallelism: workers})
					got := fmt.Sprint(err)
					if err == nil {
						checkPlanEdges(t, g, p)
						got = fmt.Sprintf("%s pairs %d costed %d", planBits(p), st.CsgCmpPairs, st.CostedPlans)
					}
					if workers == 1 {
						serial = got
					} else if got != serial {
						t.Errorf("DPsub at %d workers:\n%s\nserially:\n%s", workers, got, serial)
					}
				}
			}
			if p, _, err := goo.Solve(g, dp.Options{Pool: pool}); err == nil {
				checkPlanEdges(t, g, p)
			}
		})
	}
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

// planBits renders p with the exact bits of every estimate.
func planBits(p *plan.Node) string {
	s := p.Compact()
	p.Walk(func(n *plan.Node) {
		s += fmt.Sprintf(" %v:%x/%x%v", n.Rels, math.Float64bits(n.Card), math.Float64bits(n.Cost), n.Edges)
	})
	return s
}
