// Package cost provides cardinality estimation and cost models for the
// join-ordering optimizers.
//
// The DPhyp paper hides cost calculation behind an abstract cost function
// (§3.5: "we hide the cost calculations in an abstract function cost").
// This package supplies concrete instances. The default is C_out — the
// sum of the cardinalities of all intermediate results — which is the
// standard model in the join-ordering literature (including the DPccp
// paper the algorithms build on) because it is independent of physical
// operator choices and makes optimality easy to verify.
//
// Cardinality estimation is classical: the size of an inner join is the
// product of the input sizes discounted by the product of the
// selectivities of all predicates connecting the two sides. Non-inner
// operators get the natural adaptations (a left outer join preserves all
// left rows; a semijoin never exceeds the left input; a nestjoin emits
// exactly one row per left row; and so on).
//
// The models are pluggable: anything implementing Model (or
// PhysicalModel, to additionally choose hash/sort-merge/index-NLJ
// implementations per node) can be handed to the enumeration algorithms
// through the planner's WithCostModel option. Implementations provided
// here: Cout (default), NestedLoop, Hash, Cmm (per-operator main-memory
// weights), and Physical (operator selection).
//
// A model whose inner-join cost does not depend on the orientation
// declares it by implementing Symmetric, as Cout and NestedLoop do. The
// plan generator then prices an inner csg-cmp-pair with one JoinCost
// call instead of one per orientation, the §2.2 minimum of one cost
// function call per csg-cmp-pair.
package cost

import (
	"math"

	"repro/internal/algebra"
)

// EstimateCard estimates the output cardinality of applying op to inputs
// with cardinalities leftCard and rightCard under the combined predicate
// selectivity sel (the product of the selectivities of all edges
// connecting the two sides).
//
// An inner join's estimate is leftCard · rightCard · sel, which IEEE
// multiplication gives bit for bit under swapped inputs.
func EstimateCard(op algebra.Op, leftCard, rightCard, sel float64) float64 {
	inner := leftCard * rightCard * sel
	switch op.RegularVariant() {
	case algebra.Join:
		return inner
	case algebra.SemiJoin:
		return leftCard * matchFrac(rightCard, sel)
	case algebra.AntiJoin:
		return leftCard * (1 - matchFrac(rightCard, sel))
	case algebra.LeftOuter:
		// Matching rows plus NULL-padded non-matching left rows.
		return inner + leftCard*(1-matchFrac(rightCard, sel))
	case algebra.FullOuter:
		return inner + leftCard*(1-matchFrac(rightCard, sel)) + rightCard*(1-matchFrac(leftCard, sel))
	case algebra.NestJoin:
		// One output row per left row (§5.1: RT S = {r ∘ ν(r) | r ∈ R}).
		return leftCard
	}
	return inner
}

// matchFrac approximates the fraction of one side's rows with at least
// one join partner on the other side, of otherCard rows. For independent
// matches, a row expects otherCard*sel partners, capped at probability 1.
func matchFrac(otherCard, sel float64) float64 { return math.Min(1, otherCard*sel) }

// Model prices a single join node given the costs and cardinalities of
// its inputs and the estimated output cardinality. Implementations must
// be monotone in the input costs so that dynamic programming over
// subplans is admissible (Bellman's principle).
type Model interface {
	// JoinCost returns the TOTAL cost of the combined plan (it already
	// includes leftCost and rightCost).
	JoinCost(op algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) float64
	// Name identifies the model in reports.
	Name() string
}

// Symmetric is a Model that declares its inner-join cost independent of
// the orientation, to the bit: for all inputs,
//
//	JoinCost(algebra.Join, a, b, ca, cb, out) == JoinCost(algebra.Join, b, a, cb, ca, out)
//
// with equal float64 bits, NaN inputs aside (IEEE arithmetic may take a
// NaN result's payload from either operand). A model that is also a
// PhysicalModel must return the same PhysOp and cost bits from
// ChooseJoin under the swap.
// The plan generator (dp.Builder) then prices an inner join of two sides
// with one call and stores the orientation the memo's tie-break would
// keep; a model that does not declare the property is priced in both
// orientations. Inner-join cardinalities are symmetric already
// (EstimateCard).
type Symmetric interface {
	Model
	// SymmetricJoin marks the declaration; it is never called.
	SymmetricJoin()
}

// Cout is the C_out cost model: the cost of a plan is the sum of the
// cardinalities of all intermediate (non-leaf) results.
type Cout struct{}

// JoinCost implements Model.
func (Cout) JoinCost(_ algebra.Op, leftCost, rightCost, _, _, outCard float64) float64 {
	return leftCost + rightCost + outCard
}

// Name implements Model.
func (Cout) Name() string { return "Cout" }

// SymmetricJoin implements Symmetric: IEEE addition commutes exactly.
func (Cout) SymmetricJoin() {}

// NestedLoop models a tuple-at-a-time nested-loop evaluation: each join
// reads the full cross product of its inputs.
type NestedLoop struct{}

// JoinCost implements Model.
func (NestedLoop) JoinCost(_ algebra.Op, leftCost, rightCost, leftCard, rightCard, _ float64) float64 {
	return leftCost + rightCost + leftCard*rightCard
}

// Name implements Model.
func (NestedLoop) Name() string { return "Cnlj" }

// SymmetricJoin implements Symmetric: IEEE addition and multiplication
// commute exactly.
func (NestedLoop) SymmetricJoin() {}

// Hash models a main-memory hash join: build on the right input, probe
// with the left, pay for the output.
type Hash struct{}

// JoinCost implements Model.
func (Hash) JoinCost(_ algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) float64 {
	const buildFactor = 1.5 // hashing a row is a bit dearer than probing
	return leftCost + rightCost + leftCard + buildFactor*rightCard + outCard
}

// Name implements Model.
func (Hash) Name() string { return "Chash" }

// Cmm is an adaptation of the C_mm main-memory cost model (Moerkotte,
// "Building Query Compilers"): joins are priced as hash-based
// implementations with per-operator weights instead of C_out's uniform
// "one unit per output row". Builds are dearer than probes, semi- and
// antijoins probe with early-out and materialize no combined rows,
// outer joins pay for NULL padding, and nestjoins re-evaluate their
// right side per left row.
type Cmm struct{}

// Per-row weights of the C_mm adaptation.
const (
	cmmProbe = 1.0 // hashing + probing one left row
	cmmBuild = 2.0 // building one hash table entry
	cmmOut   = 0.5 // materializing one output row
)

// JoinCost implements Model.
func (Cmm) JoinCost(op algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) float64 {
	local := cmmProbe*leftCard + cmmBuild*rightCard
	switch op.RegularVariant() {
	case algebra.SemiJoin, algebra.AntiJoin:
		// Early-out probes; output rows are references to left rows.
		local += 0.25 * cmmOut * outCard
	case algebra.LeftOuter:
		local += cmmOut * (outCard + 0.1*leftCard) // NULL padding of misses
	case algebra.FullOuter:
		// Padding on both sides requires tracking unmatched build rows.
		local += cmmOut*outCard + 0.1*cmmOut*(leftCard+rightCard)
	case algebra.NestJoin:
		// Nested evaluation: one right-side pass per left row.
		local = leftCard*(1+log2(rightCard)) + cmmOut*outCard
	default:
		local += cmmOut * outCard
	}
	if op.Dependent() {
		// Dependent right sides are re-evaluated per binding; charge a
		// surcharge on the local work (child costs stay untouched, so
		// Bellman monotonicity is preserved).
		local *= 1.25
	}
	return leftCost + rightCost + local
}

// Name implements Model.
func (Cmm) Name() string { return "Cmm" }

// PhysicalModel is a Model that additionally chooses a physical
// implementation per join node. The plan generator (dp.Builder) detects
// the interface and annotates every plan node it builds with the chosen
// operator, so the final tree doubles as a physical plan.
//
// Contract: JoinCost(args…) must equal the cost returned by
// ChooseJoin(args…) — the model prices a plan exactly as it would
// execute it.
type PhysicalModel interface {
	Model
	// ChooseJoin returns the cheapest physical implementation for the
	// node and the TOTAL plan cost under that choice (including
	// leftCost and rightCost).
	ChooseJoin(op algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) (algebra.PhysOp, float64)
}

// Physical is a PhysicalModel pricing three implementations per join —
// hash join, sort-merge join, and index nested-loop — and picking the
// cheapest. Operators whose right side must be re-evaluated per left
// row (dependent joins, nestjoins) are pinned to index-NLJ, the only
// strategy with that shape.
//
// The per-implementation formulas are classical main-memory estimates:
//
//	hash:       1.2·|L| + 1.8·|R|           (probe left, build right)
//	sort-merge: 0.5·(|L|·log|L| + |R|·log|R|)
//	index-NLJ:  |L|·(1 + log|R|)            (one index descent per left row)
//
// all plus the output cardinality. Sort-merge wins on small balanced
// inputs, index-NLJ on small-left/large-right skew, hash elsewhere.
type Physical struct{}

// Physical implements PhysicalModel.
var _ PhysicalModel = Physical{}

// JoinCost implements Model; it returns ChooseJoin's cost.
func (p Physical) JoinCost(op algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) float64 {
	_, c := p.ChooseJoin(op, leftCost, rightCost, leftCard, rightCard, outCard)
	return c
}

// ChooseJoin implements PhysicalModel.
func (Physical) ChooseJoin(op algebra.Op, leftCost, rightCost, leftCard, rightCard, outCard float64) (algebra.PhysOp, float64) {
	base := leftCost + rightCost + outCard
	inlj := leftCard * (1 + log2(rightCard))
	if op.Dependent() || op.RegularVariant() == algebra.NestJoin {
		return algebra.PhysIndexNLJ, base + inlj
	}
	hash := 1.2*leftCard + 1.8*rightCard
	merge := 0.5 * (leftCard*log2(leftCard) + rightCard*log2(rightCard))

	best, c := algebra.PhysHashJoin, hash
	if merge < c {
		best, c = algebra.PhysSortMerge, merge
	}
	if inlj < c {
		best, c = algebra.PhysIndexNLJ, inlj
	}
	return best, base + c
}

// Name implements Model.
func (Physical) Name() string { return "Cphys" }

// log2 is a cardinality-safe binary logarithm: estimates below two rows
// clamp to 1 so that degenerate inputs never produce zero or negative
// per-row work.
func log2(card float64) float64 {
	if card < 2 {
		return 1
	}
	return math.Log2(card)
}

// Default is the model used when none is specified.
func Default() Model { return Cout{} }
