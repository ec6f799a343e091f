package cost

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
)

// TestModelMonotonicity: every model must be monotone in the input
// costs (Bellman admissibility) — raising a child's cost must never
// lower the combined cost.
func TestModelMonotonicity(t *testing.T) {
	models := []Model{Cout{}, NestedLoop{}, Hash{}, Cmm{}, Physical{}}
	ops := []algebra.Op{
		algebra.Join, algebra.SemiJoin, algebra.AntiJoin,
		algebra.LeftOuter, algebra.FullOuter, algebra.NestJoin,
		algebra.DepJoin, algebra.DepSemiJoin,
	}
	for _, m := range models {
		for _, op := range ops {
			lo := m.JoinCost(op, 100, 200, 1000, 500, 2000)
			hiL := m.JoinCost(op, 150, 200, 1000, 500, 2000)
			hiR := m.JoinCost(op, 100, 260, 1000, 500, 2000)
			if hiL < lo || hiR < lo {
				t.Errorf("%s/%s: not monotone in input costs (%g, %g vs %g)",
					m.Name(), op, hiL, hiR, lo)
			}
		}
	}
}

// TestPhysicalChoosesEachOperator: each physical implementation wins in
// the regime it is designed for.
func TestPhysicalChoosesEachOperator(t *testing.T) {
	p := Physical{}
	cases := []struct {
		name              string
		op                algebra.Op
		lCard, rCard, out float64
		want              algebra.PhysOp
	}{
		// Balanced large inputs: hash.
		{"hash", algebra.Join, 1e6, 1e6, 1e6, algebra.PhysHashJoin},
		// Small balanced inputs: sort-merge (0.5·n·log n beats 1.2/1.8 linear).
		{"sort-merge", algebra.Join, 4, 4, 4, algebra.PhysSortMerge},
		// Tiny left, huge right: index nested loop.
		{"index-nlj", algebra.Join, 10, 1e7, 100, algebra.PhysIndexNLJ},
		// Dependent joins are pinned to index-NLJ regardless of cards.
		{"dependent", algebra.DepJoin, 1e6, 1e6, 1e6, algebra.PhysIndexNLJ},
		{"nestjoin", algebra.NestJoin, 1e6, 1e6, 1e6, algebra.PhysIndexNLJ},
	}
	for _, c := range cases {
		phys, cost := p.ChooseJoin(c.op, 0, 0, c.lCard, c.rCard, c.out)
		if phys != c.want {
			t.Errorf("%s: chose %v, want %v", c.name, phys, c.want)
		}
		// Contract: JoinCost must equal ChooseJoin's cost.
		if jc := p.JoinCost(c.op, 0, 0, c.lCard, c.rCard, c.out); jc != cost {
			t.Errorf("%s: JoinCost %g != ChooseJoin cost %g", c.name, jc, cost)
		}
		if cost <= 0 {
			t.Errorf("%s: non-positive cost %g", c.name, cost)
		}
	}
}

// TestCmmOperatorSensitivity: C_mm distinguishes operators where C_out
// does not — a semijoin (probe-only) must be cheaper than the
// corresponding inner join at equal cardinalities.
func TestCmmOperatorSensitivity(t *testing.T) {
	m := Cmm{}
	join := m.JoinCost(algebra.Join, 0, 0, 1000, 500, 800)
	semi := m.JoinCost(algebra.SemiJoin, 0, 0, 1000, 500, 800)
	full := m.JoinCost(algebra.FullOuter, 0, 0, 1000, 500, 800)
	if semi >= join {
		t.Errorf("Cmm: semijoin (%g) should be cheaper than join (%g)", semi, join)
	}
	if full <= join {
		t.Errorf("Cmm: full outer (%g) should be dearer than join (%g)", full, join)
	}
	dep := m.JoinCost(algebra.DepJoin, 0, 0, 1000, 500, 800)
	if dep <= join {
		t.Errorf("Cmm: dependent join (%g) should be dearer than join (%g)", dep, join)
	}
}

// TestModelNamesDistinct: cache keys embed Model.Name, so the names
// must be pairwise distinct.
func TestModelNamesDistinct(t *testing.T) {
	models := []Model{Cout{}, NestedLoop{}, Hash{}, Cmm{}, Physical{}}
	seen := map[string]bool{}
	for _, m := range models {
		if seen[m.Name()] {
			t.Errorf("duplicate model name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

// TestSymmetricModelsSwap: Cout and NestedLoop, and only they, declare
// Symmetric, and each gives the same inner-join cost bits under swapped
// inputs; EstimateCard gives the same inner-join cardinality bits under
// a swap. Inputs are random across scales and the edge values zero,
// subnormal, 1e308, MaxFloat64 and +Inf, whose products and sums
// overflow and make NaNs.
func TestSymmetricModelsSwap(t *testing.T) {
	var declared []string
	var symmetric []Model
	for _, m := range []Model{Cout{}, NestedLoop{}, Hash{}, Cmm{}, Physical{}} {
		if _, ok := m.(Symmetric); ok {
			declared = append(declared, m.Name())
			symmetric = append(symmetric, m)
		}
	}
	if !slices.Equal(declared, []string{"Cout", "Cnlj"}) {
		t.Fatalf("models declaring Symmetric: %v, want [Cout Cnlj]", declared)
	}
	edge := []float64{0, math.SmallestNonzeroFloat64, 1e-310, 1, 1e308, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(26))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return math.Exp(rng.Float64()*1400 - 700)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 20000; trial++ {
		lcost, rcost, lcard, rcard, sel := draw(), draw(), draw(), draw(), draw()
		card := EstimateCard(algebra.Join, lcard, rcard, sel)
		if swapped := EstimateCard(algebra.Join, rcard, lcard, sel); !same(card, swapped) {
			t.Fatalf("EstimateCard(Join, %g, %g, %g) = %g, swapped %g", lcard, rcard, sel, card, swapped)
		}
		for _, m := range symmetric {
			c := m.JoinCost(algebra.Join, lcost, rcost, lcard, rcard, card)
			if swapped := m.JoinCost(algebra.Join, rcost, lcost, rcard, lcard, card); !same(c, swapped) {
				t.Fatalf("%s.JoinCost(Join, %g, %g, %g, %g, %g) = %g, swapped %g",
					m.Name(), lcost, rcost, lcard, rcard, card, c, swapped)
			}
		}
	}
}
