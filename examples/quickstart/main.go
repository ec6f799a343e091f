// Quickstart: optimize a TPC-H-flavored inner-join query with DPhyp
// through a reusable Planner session and compare the enumeration effort
// of all five exact algorithms.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func buildQuery() *repro.Query {
	q := repro.NewQuery()
	region := q.Relation("region", 5)
	nation := q.Relation("nation", 25)
	customer := q.Relation("customer", 150_000)
	orders := q.Relation("orders", 1_500_000)
	lineitem := q.Relation("lineitem", 6_000_000)
	supplier := q.Relation("supplier", 10_000)

	q.Join(region, nation, 1.0/5)
	q.Join(nation, customer, 1.0/25)
	q.Join(customer, orders, 1.0/150_000)
	q.Join(orders, lineitem, 1.0/1_500_000)
	q.Join(lineitem, supplier, 1.0/10_000)
	q.Join(nation, supplier, 1.0/25) // suppliers in the customer's nation
	return q
}

func main() {
	// One Planner serves the whole process: it owns the cost model, the
	// plan cache, and the pooled DP scratch state, and may be shared by
	// any number of goroutines.
	planner := repro.NewPlanner()
	ctx := context.Background()

	res, err := planner.Plan(ctx, buildQuery())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal plan (DPhyp, Cout):")
	fmt.Print(res.Plan)
	fmt.Printf("cost=%.4g  cardinality=%.4g  shape=%s\n\n",
		res.Cost(), res.Cardinality(), res.Plan.TreeShape())

	fmt.Println("algorithm      csg-cmp-pairs  costed plans  cost")
	for _, alg := range []repro.Algorithm{repro.DPhyp, repro.DPccp, repro.DPsize, repro.DPsub, repro.TopDown} {
		r, err := planner.Plan(ctx, buildQuery(), repro.WithAlgorithm(alg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %13d %13d  %.4g\n", alg, r.Stats.CsgCmpPairs, r.Stats.CostedPlans, r.Cost())
	}
	fmt.Println("\nAll algorithms search the same space and find the same optimum;")
	fmt.Println("they differ in wasted work, which grows with query size (see cmd/dpbench).")

	// Replanning the same query shape hits the fingerprint cache. Only
	// the deterministic counters are printed: ArenaReuses, for one,
	// depends on whether sync.Pool kept an engine across a collection.
	if r, err := planner.Plan(ctx, buildQuery()); err == nil {
		m := planner.Metrics()
		fmt.Printf("\nreplanned the same shape: cache hit = %t (plans %d, cache hits %d, cache misses %d)\n",
			r.Stats.CacheHit, m.Plans, m.CacheHits, m.CacheMisses)
	}
}
