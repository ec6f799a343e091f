// Package dpsub implements the subset-driven dynamic programming
// enumerator (§4.1): for every relation set S in ascending integer order
// it generates all subsets S1 ⊂ S with the Vance–Maier procedure, joins
// the best plans for S1 and S2 = S ∖ S1, and tests that (S1,S2) is a
// csg-cmp-pair. The subset tests fail massively on sparse query graphs —
// DPsub touches all 2^n subsets and, for each, all 2^|S| partitions
// (Θ(3^n) total) regardless of how few of them are connected — which is
// why the paper's evaluation shows it losing to DPhyp everywhere and to
// DPsize on large cycles, while winning over DPsize on stars.
//
// As with DPsize, hypergraph support needs no structural change: only
// the connectivity test must understand hyperedges (§4.1).
//
// The solver is a pure enumerator: memoization, budgets, and plan
// construction route through the shared memo engine (internal/memo),
// and subset generation uses the bitset.SubsetsOf iterator.
package dpsub

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/memo"
	"repro/internal/plan"
)

// Solve runs DPsub over g.
//
// With more than one worker (see dp.Options.Parallelism) it switches to
// the level-synchronous parallel enumeration: relation sets are
// processed by ascending size instead of ascending integer value (every
// proper subset still precedes its supersets), and the sets of one
// size — whose Θ(2^|S|) partition loops are independent given the
// smaller sizes — are partitioned across workers. On cliques, where
// every subset is connected, this parallelizes essentially the entire
// Θ(3^n) run.
func Solve(g *hypergraph.Graph, opts dp.Options) (*plan.Node, dp.Stats, error) {
	return dp.Run(g, opts, func(b *dp.Builder, workers int) error {
		n, all := g.NumRels(), g.AllNodes()
		// The level enumeration steps with Gosper's hack, which needs
		// one bit of headroom above the universe; 63-relation queries
		// are far beyond exact enumeration anyway.
		if workers > 1 && n < 63 {
			solveParallel(g, b, all, n, workers)
		} else {
			enumerate(g, b.Engine, all)
		}
		return nil
	})
}

// enumerate is the serial DPsub loop nest (§4.1): Vance–Maier order is
// ascending integer order, so every proper subset of S is enumerated
// before S itself and the DP order is respected.
//
//dp:hotpath
func enumerate(g *hypergraph.Graph, e *memo.Engine, all bitset.Set) {
outer:
	for S := range all.SubsetsOf() {
		if S.Len() < 2 {
			continue
		}
		// "DPsub generates all subsets S1 ⊂ S and joins the best plans
		// for S1 and S2 = S ∖ S1."
		for S1 := range S.SubsetsOf() {
			if S1.Equal(S) {
				break // proper subsets only
			}
			// DPsub spends Θ(3^n) iterations mostly on failing subset
			// tests; poll cancellation in the innermost loop.
			if !e.Step() {
				break outer
			}
			S2 := S.Minus(S1)
			if !e.Contains(S1) || !e.Contains(S2) {
				continue // one side is not a connected subgraph
			}
			if !g.ConnectsTo(S1, S2) {
				continue
			}
			// Both orientations appear in the subset loop; emit the
			// normalized one (EmitPair prices commutative operators in
			// both directions itself).
			if S1.Min() < S2.Min() {
				e.EmitPair(S1, S2)
			}
		}
	}
}

// chunkSets bounds the relation sets per parallel work unit. Each set
// costs Θ(2^|S|) subset probes, so even short chunks amortize the
// atomic claim; short chunks keep the skewed middle levels balanced.
const chunkSets = 16

// solveParallel is the level-synchronous parallel DPsub: for each size
// s it materializes the size-s subsets of the universe in ascending
// order (Gosper's hack), partitions them into fixed chunks that
// workers claim dynamically, and runs each set's Vance–Maier partition
// loop on the claiming worker. All memo reads during a level hit sizes
// < s, frozen since the previous barrier; writes go to per-worker
// views merged deterministically at the barrier.
func solveParallel(g *hypergraph.Graph, b *dp.Builder, all bitset.Set, n, workers int) {
	pr := dp.NewParRun(b, workers)
	var sets []bitset.Set
	for s := 2; s <= n; s++ {
		sets = sets[:0]
		for S := bitset.Full(s); !all.Less(S); S = S.NextSameSize() {
			sets = append(sets, S)
		}
		pr.Par.StartLevel()
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			we := pr.Bs[w].Engine
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					lo := ci * chunkSets
					if lo >= len(sets) || we.Aborted() != nil {
						return
					}
					for _, S := range sets[lo:min(lo+chunkSets, len(sets))] {
						for S1 := range S.SubsetsOf() {
							if S1.Equal(S) {
								break
							}
							if !we.Step() {
								return
							}
							S2 := S.Minus(S1)
							if !we.Contains(S1) || !we.Contains(S2) {
								continue
							}
							if !g.ConnectsTo(S1, S2) {
								continue
							}
							if S1.Min() < S2.Min() {
								we.EmitPair(S1, S2)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		pr.Par.FinishLevel()
		if pr.Par.Aborted() != nil {
			return
		}
	}
}
