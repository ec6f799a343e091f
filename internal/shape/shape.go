// Package shape classifies the topology of a query hypergraph.
//
// The paper's evaluation (§4) shows that the relative performance of the
// enumeration algorithms is a function of query shape: on chains and
// cycles the three dynamic programming variants are within small factors
// of each other, while on stars and cliques DPsize and DPsub fall behind
// DPhyp by orders of magnitude (Figs. 5–7). An adaptive planner
// therefore needs a cheap, label-invariant classifier that recognizes
// the canonical shapes before enumeration starts; the Planner's
// SolverAuto mode routes on the result, the class and the relation
// count, to pick where exact enumeration stops.
//
// Classify runs in O(|V|) on the graph's derived index: it reads the
// degree sequence of the simple-edge skeleton (hyperedges do not change
// the skeleton class, mirroring the paper's "cycle/star with
// hyperedges" families) and the skeleton's connectivity, and matches
// the degree profile against the canonical shapes. Degree profiles are
// permutation-invariant, so the classification cannot depend on
// relation labels or insertion order.
package shape

import (
	"fmt"

	"repro/internal/hypergraph"
)

// Class is a topology class of the simple-edge skeleton.
type Class int

// The recognized classes, in classification precedence order (a triangle
// is reported as Clique, not Cycle; a 2×2 grid as Cycle, not Grid; a
// 2-relation query as Chain, not Star).
const (
	// Mixed is everything that matches no canonical shape, including
	// graphs whose simple-edge skeleton is disconnected (e.g. queries
	// held together only by hyperedges).
	Mixed Class = iota
	// Chain is a path R0 – R1 – … – R(n-1); a single relation counts.
	Chain
	// Cycle is a closed chain (every relation has exactly two simple
	// neighbors).
	Cycle
	// Star has one hub connected to n-1 satellites (Fig. 7).
	Star
	// Clique has all n(n-1)/2 simple edges.
	Clique
	// Grid is an a×b lattice (a,b ≥ 2), matched by its degree profile.
	Grid
)

var classNames = map[Class]string{
	Mixed: "mixed", Chain: "chain", Cycle: "cycle",
	Star: "star", Clique: "clique", Grid: "grid",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Profile describes a hypergraph's topology by the two features the
// router reads: the skeleton class and the relation count.
type Profile struct {
	// Class is the topology class of the simple-edge skeleton.
	Class Class
	// Rels is the number of relations, |V|.
	Rels int
}

// Classify computes the Profile of g. Degrees and skeleton connectivity
// come from the graph's derived index, which Classify builds under the
// graph's lock if needed, in O(|V| + |E|); on a frozen graph, as the
// Planner hands it, Classify takes O(|V|) and allocates nothing. It
// never otherwise mutates the graph and is safe for concurrent use.
//
// The Grid class is matched by its degree profile (edge count and degree
// histogram of some a×b factorization), which is a necessary but not
// sufficient condition for being a lattice; the router only uses the
// class to pick where exact enumeration stops, so a false Grid positive
// can move only that cutoff, never the plan an exact route returns.
func Classify(g *hypergraph.Graph) Profile {
	n := g.NumRels()
	p := Profile{Rels: n}
	if n == 0 {
		return p
	}

	_, skelConnected := g.Connectivity()
	var hist degreeHist
	degrees, maxDegree := 0, 0
	for i := 0; i < n; i++ {
		d := g.SimpleDegree(i)
		hist[min(d, len(hist)-1)]++
		degrees += d
		maxDegree = max(maxDegree, d)
	}

	// m counts distinct unordered simple-edge pairs: duplicate
	// predicates between the same two relations collapse.
	m := degrees / 2
	switch {
	case n == 1:
		p.Class = Chain
	case !skelConnected:
		p.Class = Mixed
	case m == n-1 && maxDegree <= 2:
		// A connected graph with n-1 edges is a tree; max degree 2
		// makes it a path.
		p.Class = Chain
	case n >= 3 && m == n*(n-1)/2:
		// All distinct pairs present. Checked before Cycle so that the
		// triangle — which is both — reports as Clique.
		p.Class = Clique
	case m == n && maxDegree == 2:
		// Connected and 2-regular (sum of degrees is 2n, so max 2
		// forces all 2): a single cycle.
		p.Class = Cycle
	case m == n-1 && maxDegree == n-1:
		// A tree with a universal hub.
		p.Class = Star
	case gridDegreeProfile(n, m, hist):
		p.Class = Grid
	default:
		p.Class = Mixed
	}
	return p
}

// degreeHist counts relations by simple-edge degree: entry d for
// degrees 0–4 (all a lattice has), the last entry for 5 and more.
type degreeHist [6]int

// gridDegreeProfile reports whether (n, m, degree histogram) matches an
// a×b lattice for some factorization n = a·b with 2 ≤ a ≤ b: m must be
// a(b-1) + b(a-1), the four corners have degree 2, border nodes degree
// 3, and interior nodes degree 4 (a 2×b lattice has no interior).
func gridDegreeProfile(n, m int, hist degreeHist) bool {
	for a := 2; a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		b := n / a
		if m != a*(b-1)+b*(a-1) {
			continue
		}
		if hist == (degreeHist{2: 4, 3: 2*(a-2) + 2*(b-2), 4: (a - 2) * (b - 2)}) {
			return true
		}
	}
	return false
}
