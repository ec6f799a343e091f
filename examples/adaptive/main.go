// Command adaptive demonstrates the adaptive planning layer: one
// Planner in SolverAuto mode classifies each query's topology and routes
// it by shape and size (DPhyp, the one exact route, for every query
// below, including the one whose predicate spans three relations;
// Greedy and IterDP take queries beyond the exact cutoffs), and the
// Physical cost model annotates every join with the physical operator it
// chose (hash join, sort-merge join, or index nested-loop).
package main

import (
	"context"
	"fmt"

	"repro"
)

// chain builds SELECT ... FROM R0, R1, ..., joined in a line.
func chain(n int) *repro.Query {
	q := repro.NewQuery()
	ids := make([]repro.RelID, n)
	for i := range ids {
		ids[i] = q.Relation(fmt.Sprintf("R%d", i), float64(1000*(i+1)))
	}
	for i := 0; i+1 < n; i++ {
		q.Join(ids[i], ids[i+1], 0.01)
	}
	return q
}

// star builds a fact table joined to n-1 dimensions.
func star(n int) *repro.Query {
	q := repro.NewQuery()
	fact := q.Relation("fact", 1_000_000)
	for i := 1; i < n; i++ {
		d := q.Relation(fmt.Sprintf("dim%d", i), float64(100*i))
		q.Join(fact, d, 1/float64(100*i))
	}
	return q
}

// clique joins every relation with every other.
func clique(n int) *repro.Query {
	q := repro.NewQuery()
	ids := make([]repro.RelID, n)
	for i := range ids {
		ids[i] = q.Relation(fmt.Sprintf("R%d", i), float64(500+100*i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			q.Join(ids[i], ids[j], 0.05)
		}
	}
	return q
}

// hyper is a chain of three relations plus one predicate over all of
// them, a hyperedge ({R0,R1},{R2}).
func hyper() *repro.Query {
	q := repro.NewQuery()
	r0 := q.Relation("R0", 10_000)
	r1 := q.Relation("R1", 2_000)
	r2 := q.Relation("R2", 500)
	q.Join(r0, r1, 0.001)
	q.Join(r1, r2, 0.01)
	q.ComplexJoin([]repro.RelID{r0, r1}, []repro.RelID{r2}, 0.5)
	return q
}

func main() {
	// One planner, shared by all queries: SolverAuto picks the
	// enumeration algorithm per query shape, the Physical model picks
	// the implementation per join.
	planner := repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithCostModel(repro.Physical),
	)
	ctx := context.Background()

	queries := []struct {
		name string
		q    *repro.Query
	}{
		{"chain of 8", chain(8)},
		{"star with 7 dimensions", star(8)},
		{"clique of 6", clique(6)},
		{"three-way predicate", hyper()},
	}
	for _, c := range queries {
		res, err := planner.Plan(ctx, c.q)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s:\n  shape=%s routed=%s ran=%s cost=%.4g\n",
			c.name, res.Stats.Shape, res.Stats.RoutedAlgorithm, res.Algorithm, res.Cost())

		// Count the physical operators the model chose.
		counts := map[repro.PhysicalOp]int{}
		res.Plan.Walk(func(n *repro.PlanNode) {
			if !n.IsLeaf() {
				counts[n.Phys]++
			}
		})
		fmt.Printf("  physical operators: ")
		for _, op := range []repro.PhysicalOp{repro.PhysHashJoin, repro.PhysSortMerge, repro.PhysIndexNLJ} {
			if counts[op] > 0 {
				fmt.Printf("%s×%d ", op, counts[op])
			}
		}
		fmt.Println()
		fmt.Println("  plan:", res.Plan.Compact())
	}
}
