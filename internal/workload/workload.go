// Package workload generates the query graphs and operator trees of the
// paper's evaluation (§4 and §5.8).
//
// The hypergraph families follow the §4 construction: "we start with a
// simple graph and add one big hyperedge to it. Then, we successively
// split the hyperedge into two smaller ones until we reach simple
// edges." The split schedule reproduces the paper's example exactly
// (Fig. 4a and the derivation of G1–G3 for the 8-relation cycle): the
// initial hyperedge splits crosswise — u's low half pairs with v's high
// half — and every later split pairs halves straight; hyperedges are
// split in FIFO order, oldest first.
//
// Cardinalities and selectivities are drawn from a deterministic seeded
// generator so that benchmark runs are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/optree"
)

// Config controls cardinality and selectivity generation.
type Config struct {
	Seed             int64
	MinCard, MaxCard float64
	MinSel, MaxSel   float64
	HyperSel         float64 // selectivity of hyperedges
}

// DefaultConfig mirrors common join-ordering experiment setups: table
// sizes spread over three orders of magnitude, selective predicates.
func DefaultConfig() Config {
	return Config{
		Seed:    2008,
		MinCard: 100, MaxCard: 100000,
		MinSel: 0.001, MaxSel: 0.1,
		HyperSel: 0.05,
	}
}

// LargeConfig is tuned for queries beyond the historical 64-relation
// ceiling. DefaultConfig's per-join growth factor (card·sel) is about
// 1.4e3× (E[ln(card·sel)] ≈ 7.3), which overflows float64 cardinality
// estimates (ln MaxFloat64 ≈ 710) near 100 joins — every plan,
// including the true optimum, prices to +Inf and cost comparison
// degenerates. Real schemas at that scale are joined along PK–FK
// chains whose selectivity is the reciprocal of a key count, so the
// growth factor hovers near one; this config mirrors that
// (E[ln(card·sel)] ≈ 0.3), keeping estimates finite out to a few
// hundred relations.
func LargeConfig() Config {
	return Config{
		Seed:    2008,
		MinCard: 10, MaxCard: 10000,
		MinSel: 0.00001, MaxSel: 0.001,
		HyperSel: 0.0005,
	}
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c Config) card(rng *rand.Rand) float64 {
	return c.MinCard + rng.Float64()*(c.MaxCard-c.MinCard)
}

func (c Config) sel(rng *rand.Rand) float64 {
	return c.MinSel + rng.Float64()*(c.MaxSel-c.MinSel)
}

// Chain returns a chain query graph R0 – R1 – ... – R(n-1).
func Chain(n int, cfg Config) *hypergraph.Graph {
	rng := cfg.rng()
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), cfg.card(rng))
	}
	for i := 0; i+1 < n; i++ {
		g.AddSimpleEdge(i, i+1, cfg.sel(rng))
	}
	return g
}

// Cycle returns a cycle query graph over n ≥ 3 relations.
func Cycle(n int, cfg Config) *hypergraph.Graph {
	if n < 3 {
		panic("workload: cycle needs at least 3 relations")
	}
	g := Chain(n, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	g.AddSimpleEdge(n-1, 0, cfg.sel(rng))
	return g
}

// Star returns a star query graph with relation 0 as the hub and n-1
// satellites (n total relations), the shape of Fig. 7.
func Star(n int, cfg Config) *hypergraph.Graph {
	if n < 2 {
		panic("workload: star needs at least 2 relations")
	}
	rng := cfg.rng()
	g := hypergraph.New()
	g.AddRelation("F", cfg.MaxCard) // hub: the fact table
	for i := 1; i < n; i++ {
		g.AddRelation(fmt.Sprintf("D%d", i), cfg.card(rng))
	}
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(0, i, cfg.sel(rng))
	}
	return g
}

// Clique returns a complete query graph over n relations.
func Clique(n int, cfg Config) *hypergraph.Graph {
	rng := cfg.rng()
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), cfg.card(rng))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddSimpleEdge(i, j, cfg.sel(rng))
		}
	}
	return g
}

// Grid returns an a×b lattice query graph (a, b ≥ 2): relation (i,j) is
// node i*b+j, joined to its right and lower neighbors. Grids are the
// standard "moderately dense" shape between chains and cliques in the
// join-ordering literature.
func Grid(a, b int, cfg Config) *hypergraph.Graph {
	if a < 2 || b < 2 {
		panic("workload: grid needs both dimensions ≥ 2")
	}
	rng := cfg.rng()
	g := hypergraph.New()
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddRelation(fmt.Sprintf("R%d_%d", i, j), cfg.card(rng))
		}
	}
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			if j+1 < b {
				g.AddSimpleEdge(i*b+j, i*b+j+1, cfg.sel(rng))
			}
			if i+1 < a {
				g.AddSimpleEdge(i*b+j, (i+1)*b+j, cfg.sel(rng))
			}
		}
	}
	return g
}

// hyperSplit is one (u,v) hyperedge in the split schedule.
type hyperSplit struct {
	u, v  bitset.Set
	cross bool // whether the NEXT split of this edge pairs crosswise
}

// splitSchedule derives the list of hyperedges after the given number of
// splits, starting from (u0, v0). The initial edge splits crosswise, all
// derived edges straight, FIFO order (§4: G0...G3 of the 8-relation
// cycle).
func splitSchedule(u0, v0 bitset.Set, splits int) []hyperSplit {
	queue := []hyperSplit{{u: u0, v: v0, cross: true}}
	for s := 0; s < splits; s++ {
		// Pop the oldest splittable edge.
		idx := -1
		for i, e := range queue {
			if e.u.Len() > 1 {
				idx = i
				break
			}
		}
		if idx < 0 {
			panic(fmt.Sprintf("workload: cannot split %d times", splits))
		}
		e := queue[idx]
		queue = append(queue[:idx], queue[idx+1:]...)
		uLo, uHi := halves(e.u)
		vLo, vHi := halves(e.v)
		var a, b hyperSplit
		if e.cross {
			a = hyperSplit{u: uLo, v: vHi}
			b = hyperSplit{u: uHi, v: vLo}
		} else {
			a = hyperSplit{u: uLo, v: vLo}
			b = hyperSplit{u: uHi, v: vHi}
		}
		queue = append(queue, a, b)
	}
	return queue
}

// halves splits a set into its low and high half by node order.
func halves(s bitset.Set) (lo, hi bitset.Set) {
	elems := s.Elems()
	mid := len(elems) / 2
	for _, e := range elems[:mid] {
		lo = lo.Add(e)
	}
	for _, e := range elems[mid:] {
		hi = hi.Add(e)
	}
	return lo, hi
}

// MaxSplits returns the number of split steps that fully decompose an
// initial hyperedge with `half` relations per hypernode into simple
// edges: each split turns one edge into two, and one edge must become
// `half` simple edges, so half-1 splits. This matches the paper's x-axes:
// splits 0..3 for 8 relations (half 4), 0..7 for 16 relations (half 8).
func MaxSplits(half int) int { return half - 1 }

// CycleHyper builds the Fig. 4a family: a cycle over n relations (n even,
// n ≥ 4) plus the hyperedge ({R0..R(n/2-1)}, {R(n/2)..R(n-1)}) split
// `splits` times. splits = 0 keeps the single big hyperedge; the maximum
// n/2 - 1 yields all simple diagonal edges (G3 for n = 8).
func CycleHyper(n, splits int, cfg Config) *hypergraph.Graph {
	if n < 4 || n%2 != 0 {
		panic("workload: cycle hypergraphs need an even n ≥ 4")
	}
	g := Cycle(n, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	u := bitset.Range(0, n/2)
	v := bitset.Range(n/2, n)
	for _, e := range splitSchedule(u, v, splits) {
		sel := cfg.HyperSel
		if e.u.IsSingleton() {
			sel = cfg.sel(rng)
		}
		g.AddEdge(hypergraph.Edge{U: e.u, V: e.v, Sel: sel, Op: algebra.Join,
			Label: fmt.Sprintf("h%v=%v", e.u, e.v)})
	}
	return g
}

// StarHyper builds the Fig. 4b family: a star with `sat` satellites
// (sat even, total sat+1 relations) plus the hyperedge
// ({R1..R(sat/2)}, {R(sat/2+1)..R(sat)}) split `splits` times.
func StarHyper(sat, splits int, cfg Config) *hypergraph.Graph {
	if sat < 4 || sat%2 != 0 {
		panic("workload: star hypergraphs need an even satellite count ≥ 4")
	}
	g := Star(sat+1, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	u := bitset.Range(1, sat/2+1)
	v := bitset.Range(sat/2+1, sat+1)
	for _, e := range splitSchedule(u, v, splits) {
		sel := cfg.HyperSel
		if e.u.IsSingleton() {
			sel = cfg.sel(rng)
		}
		g.AddEdge(hypergraph.Edge{U: e.u, V: e.v, Sel: sel, Op: algebra.Join,
			Label: fmt.Sprintf("h%v=%v", e.u, e.v)})
	}
	return g
}

// StarTree builds the §5.8 antijoin workload: a left-deep operator tree
// for a star query over n relations where the first k operators (the
// innermost ones) are antijoins and the remainder inner joins. Predicates
// connect the hub R0 with each satellite.
func StarTree(n, antijoins int, cfg Config) (*optree.Node, []optree.RelInfo) {
	if antijoins > n-1 {
		panic("workload: more antijoins than operators")
	}
	rng := cfg.rng()
	rels := make([]optree.RelInfo, n)
	rels[0] = optree.RelInfo{Name: "F", Card: cfg.MaxCard}
	for i := 1; i < n; i++ {
		rels[i] = optree.RelInfo{Name: fmt.Sprintf("D%d", i), Card: cfg.card(rng)}
	}
	cur := optree.NewLeaf(0)
	for i := 1; i < n; i++ {
		op := algebra.Join
		if i <= antijoins {
			op = algebra.AntiJoin
		}
		// Scale the selectivity so that a fact row matches a fraction of
		// the dimension (0.2–0.8): antijoins and semijoins then retain
		// meaningful cardinalities instead of degenerating to 0 or |F|.
		frac := 0.2 + 0.6*rng.Float64()
		cur = optree.NewOp(op, cur, optree.NewLeaf(i), optree.Predicate{
			Tables: bitset.New(0, i),
			Sel:    frac / rels[i].Card,
			Label:  fmt.Sprintf("F=D%d", i),
		})
	}
	return cur, rels
}

// CycleTree builds the §5.8 outer-join workload: a left-deep operator
// tree for a cycle query over n relations where the first k operators
// are left outer joins and the remainder inner joins. Operator i joins
// R_i with predicate {R(i-1), R_i}; the final operator additionally
// carries the cycle-closing predicate on {R0, R(n-1)}.
func CycleTree(n, outerJoins int, cfg Config) (*optree.Node, []optree.RelInfo) {
	if outerJoins > n-1 {
		panic("workload: more outer joins than operators")
	}
	rng := cfg.rng()
	rels := make([]optree.RelInfo, n)
	for i := 0; i < n; i++ {
		rels[i] = optree.RelInfo{Name: fmt.Sprintf("R%d", i), Card: cfg.card(rng)}
	}
	cur := optree.NewLeaf(0)
	for i := 1; i < n; i++ {
		op := algebra.Join
		if i <= outerJoins {
			op = algebra.LeftOuter
		}
		tabs := bitset.New(i-1, i)
		sel := cfg.sel(rng)
		label := fmt.Sprintf("R%d=R%d", i-1, i)
		if i == n-1 {
			tabs = tabs.Add(0) // closing predicate folded into the last operator
			sel *= cfg.sel(rng)
			label += fmt.Sprintf(" and R0=R%d", n-1)
		}
		cur = optree.NewOp(op, cur, optree.NewLeaf(i), optree.Predicate{
			Tables: tabs,
			Sel:    sel,
			Label:  label,
		})
	}
	return cur, rels
}

// RandomSimple returns a connected random simple graph: a random spanning
// tree plus `extra` random edges.
func RandomSimple(rng *rand.Rand, n, extra int, cfg Config) *hypergraph.Graph {
	g := hypergraph.New()
	for i := 0; i < n; i++ {
		g.AddRelation(fmt.Sprintf("R%d", i), cfg.MinCard+rng.Float64()*(cfg.MaxCard-cfg.MinCard))
	}
	for i := 1; i < n; i++ {
		g.AddSimpleEdge(rng.Intn(i), i, cfg.MinSel+rng.Float64()*(cfg.MaxSel-cfg.MinSel))
	}
	for k := 0; k < extra; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddSimpleEdge(a, b, cfg.MinSel+rng.Float64()*(cfg.MaxSel-cfg.MinSel))
		}
	}
	return g
}

// RandomHyper returns a connected random hypergraph: a spanning tree of
// simple edges plus `extra` random hyperedges over disjoint hypernodes.
func RandomHyper(rng *rand.Rand, n, extra int, cfg Config) *hypergraph.Graph {
	g := RandomSimple(rng, n, 0, cfg)
	for k := 0; k < extra; k++ {
		var u, v bitset.Set
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				u = u.Add(i)
			case 1:
				v = v.Add(i)
			}
		}
		if !u.IsEmpty() && !v.IsEmpty() && u.Disjoint(v) {
			g.AddEdge(hypergraph.Edge{U: u, V: v, Sel: cfg.HyperSel})
		}
	}
	return g
}
