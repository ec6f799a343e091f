package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/optree"
	"repro/internal/simplify"
)

// looseTreeGen builds random initial operator trees WITHOUT the
// simplification precondition: predicates may reference nullable
// (outer-join-padded) tables, which is exactly what real, unsimplified
// queries look like. Visibility is still respected (semijoin/antijoin/
// nestjoin right sides stay out of scope).
type looseTreeGen struct {
	rng *rand.Rand
	ops []algebra.Op
}

func (g *looseTreeGen) build(lo, hi int) (node *optree.Node, visible bitset.Set) {
	if hi-lo == 1 {
		return optree.NewLeaf(lo), bitset.Single(lo)
	}
	split := lo + 1 + g.rng.Intn(hi-lo-1)
	left, lvis := g.build(lo, split)
	right, rvis := g.build(split, hi)

	op := g.ops[g.rng.Intn(len(g.ops))]
	a := pick(g.rng, lvis)
	b := pick(g.rng, rvis)
	pred := SumEq{Left: []ColID{{Rel: a, Col: 0}}, Right: []ColID{{Rel: b, Col: 0}}}
	node = optree.NewOp(op, left, right, optree.Predicate{
		Tables:  bitset.New(a, b),
		Sel:     0.1 + g.rng.Float64()*0.4,
		Label:   pred.String(),
		Payload: JoinSpec{Preds: []Pred{pred}},
	})
	switch op {
	case algebra.Join, algebra.LeftOuter, algebra.FullOuter:
		visible = lvis.Union(rvis)
	default:
		visible = lvis
	}
	return node, visible
}

// TestSimplifyThenOptimizeEquivalence closes the loop on the §5.2
// precondition: unsimplified random trees (nullable predicate
// references allowed) are first simplified, then TES-analyzed,
// optimized by DPhyp, executed, and compared against the ORIGINAL
// (unsimplified) tree's direct evaluation. Simplification must be an
// equivalence transformation, and after it the conflict rules must be
// sound.
func TestSimplifyThenOptimizeEquivalence(t *testing.T) {
	mixes := [][]algebra.Op{
		{algebra.Join, algebra.LeftOuter},
		{algebra.Join, algebra.LeftOuter, algebra.SemiJoin},
		{algebra.Join, algebra.LeftOuter, algebra.FullOuter},
	}
	rng := rand.New(rand.NewSource(19970301))
	for mi, mix := range mixes {
		for rep := 0; rep < 40; rep++ {
			n := 2 + rng.Intn(5)
			gen := &looseTreeGen{rng: rng, ops: mix}
			root, _ := gen.build(0, n)
			rels := make([]optree.RelInfo, n)
			for i := range rels {
				rels[i] = optree.RelInfo{Name: fmt.Sprintf("R%d", i), Card: float64(10 + rng.Intn(90))}
			}
			db := randomDB(rng, n)

			// Reference result from the UNSIMPLIFIED tree.
			refPlan, err := FromOpTree(root, db)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(refPlan)
			if err != nil {
				t.Fatal(err)
			}

			// Simplify in place, then sanity-check: direct evaluation of
			// the simplified tree must already match.
			simplify.Simplify(root)
			simpPlan, err := FromOpTree(root, db)
			if err != nil {
				t.Fatal(err)
			}
			simp, err := Run(simpPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(ref, simp) {
				t.Fatalf("mix %d rep %d: simplification changed semantics\ntree: %v\nwant:\n%s\ngot:\n%s",
					mi, rep, root, ref.Canonical(), simp.Canonical())
			}

			for _, rule := range []optree.ConflictRule{optree.Conservative, optree.Published} {
				tr, err := optree.Analyze(root, rels, rule)
				if err != nil {
					t.Fatalf("mix %d rep %d: %v", mi, rep, err)
				}
				g := tr.Hypergraph(optree.TESEdges)
				p, _, err := core.Solve(g, dp.Options{})
				if err != nil {
					t.Fatalf("mix %d rep %d rule %v: %v", mi, rep, rule, err)
				}
				ep, err := FromPlan(p, g, db)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(ep)
				if err != nil {
					t.Fatalf("mix %d rep %d rule %v: execute: %v\n%s", mi, rep, rule, err, p)
				}
				if !Equal(ref, got) {
					t.Errorf("mix %d rep %d rule %v: mismatch after simplify+optimize\ntree: %v\nplan:\n%s\nwant:\n%s\ngot:\n%s",
						mi, rep, rule, root, p, ref.Canonical(), got.Canonical())
				}
			}
		}
	}
}
