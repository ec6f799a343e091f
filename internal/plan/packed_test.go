package plan_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/goo"
	"repro/internal/hypergraph"
	"repro/internal/iterdp"
	"repro/internal/plan"
	"repro/internal/workload"
)

// TestPackRoundTrip: Unpack(Pack(p)) equals p field for field — Op,
// Phys, Rel, Rels, the card and cost bits and Edges of every node — on
// plans under the physical model of 4 relations (DPhyp), 64 (Greedy)
// and 100 (IterDP, whose sets are wider than a word), and on a plan
// whose leaves carry costs, as a restored snapshot's may. Appending to
// one unpacked node's Edges changes no other node's.
func TestPackRoundTrip(t *testing.T) {
	m := cost.Physical{}
	large := workload.LargeConfig()
	small, _, err := core.Solve(workload.Star(4, workload.DefaultConfig()), dp.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	greedy, _, err := goo.Solve(workload.Grid(8, 8, large), dp.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := iterdp.Solve(workload.Grid(10, 10, large), iterdp.Options{
		Model: m,
		Exact: func(sub *hypergraph.Graph) (*plan.Node, dp.Stats, error) {
			return core.Solve(sub, dp.Options{Model: m})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	leafCosts, _, err := core.Solve(workload.Chain(5, workload.DefaultConfig()), dp.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	leafCosts.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			n.Cost = float64(n.Rel) + 0.5
		}
	})
	for _, c := range []struct {
		name string
		p    *plan.Node
		rels int
	}{{"dphyp4", small, 4}, {"greedy64", greedy, 64}, {"iterdp100", wide, 100}, {"leaf-costs5", leafCosts, 5}} {
		t.Run(c.name, func(t *testing.T) {
			if c.p.Relations() != c.rels {
				t.Fatalf("plan covers %d relations, want %d", c.p.Relations(), c.rels)
			}
			phys := 0
			c.p.Walk(func(n *plan.Node) {
				if n.Phys != 0 {
					phys++
				}
			})
			if phys == 0 {
				t.Error("no node carries a physical operator")
			}
			u := plan.Pack(c.p).Unpack()
			if d := nodeDiff(u, c.p); d != "" {
				t.Fatal(d)
			}
			// Appending to every join's Edges must not reach another
			// node's: each append lands in the node's own storage.
			var joins []*plan.Node
			u.Walk(func(n *plan.Node) {
				if !n.IsLeaf() {
					joins = append(joins, n)
				}
			})
			for _, n := range joins {
				n.Edges = append(n.Edges, -1)
			}
			for _, n := range joins {
				if slices.Index(n.Edges, -1) != len(n.Edges)-1 {
					t.Fatalf("edges at %v were overwritten by another node's append: %v", n.Rels, n.Edges)
				}
			}
		})
	}
}

// nodeDiff returns the first field in which q differs from p, or "".
func nodeDiff(p, q *plan.Node) string {
	bits := math.Float64bits
	switch {
	case p.IsLeaf() != q.IsLeaf():
		return "shape at " + q.Rels.String()
	case p.Op != q.Op || p.Phys != q.Phys || p.Rel != q.Rel:
		return fmt.Sprintf("op/phys/rel at %v: %v/%v/%d, want %v/%v/%d", q.Rels, p.Op, p.Phys, p.Rel, q.Op, q.Phys, q.Rel)
	case !p.Rels.Equal(q.Rels):
		return fmt.Sprintf("rels %v, want %v", p.Rels, q.Rels)
	case bits(p.Card) != bits(q.Card) || bits(p.Cost) != bits(q.Cost):
		return "card/cost bits at " + q.Rels.String()
	case !slices.Equal(p.Edges, q.Edges):
		return fmt.Sprintf("edges at %v: %v, want %v", q.Rels, p.Edges, q.Edges)
	case p.IsLeaf():
		return ""
	}
	if d := nodeDiff(p.Left, q.Left); d != "" {
		return d
	}
	return nodeDiff(p.Right, q.Right)
}
