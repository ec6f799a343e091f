package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro"
	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/optree"
	"repro/internal/workload"
	"repro/service"
)

// cell is one family × size combination of a workload's document grid.
// n and m follow cmd/querygen: n is the relation count (satellites for
// star-hyper, rows for grid) and m is the grid's column count, the
// number of hyperedge splits, or the number of non-inner operators of a
// tree family.
type cell struct {
	family string
	n, m   int
}

func (c cell) String() string {
	switch c.family {
	case "chain", "cycle", "star", "clique":
		return fmt.Sprintf("%s%d", c.family, c.n)
	case "grid":
		return fmt.Sprintf("grid%dx%d", c.n, c.m)
	}
	return fmt.Sprintf("%s%d/%d", c.family, c.n, c.m)
}

// item is one generated document of a pool. body is the /plan request
// body, marshaled during generation so the load loop only sends bytes.
type item struct {
	cell cell
	doc  *repro.QueryJSON
	body []byte
}

// sizes expands a family over relation counts (m = 0).
func sizes(family string, ns ...int) []cell {
	out := make([]cell, len(ns))
	for i, n := range ns {
		out[i] = cell{family: family, n: n}
	}
	return out
}

// lastSplit is the last split stage the workload generators can build
// for a hypergraph family of parameter n (half = n/2 relations per
// hypernode). An even half splits all the way down to simple edges; an
// odd half splits unevenly at the first, crosswise split, and the
// schedule then meets a one-relation side after half-2 splits.
func lastSplit(n int) int {
	half := n / 2
	if half%2 == 1 {
		return half - 2
	}
	return workload.MaxSplits(half)
}

// allSplits expands a hypergraph family over every split stage of
// every n.
func allSplits(family string, ns ...int) []cell {
	var out []cell
	for _, n := range ns {
		for m := 0; m <= lastSplit(n); m++ {
			out = append(out, cell{family: family, n: n, m: m})
		}
	}
	return out
}

// pairs expands a two-parameter family over (n, m) pairs.
func pairs(family string, nm ...[2]int) []cell {
	out := make([]cell, len(nm))
	for i, d := range nm {
		out[i] = cell{family: family, n: d[0], m: d[1]}
	}
	return out
}

// interleave orders the cells round-robin over the families, so every
// prefix of a pool mixes all families and the first len(cells)
// documents cover every cell exactly once.
func interleave(families ...[]cell) []cell {
	var out []cell
	for r := 0; ; r++ {
		took := false
		for _, f := range families {
			if r < len(f) {
				out = append(out, f[r])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// The document grids. Sizes follow the workload descriptions in
// README.md; every cell appears among the first 64 documents of its pool,
// which is the sample the verification gate checks.
var (
	// hotCells: 64 documents of 4–12 relations, 8 of them operator trees.
	// Cliques stop at 10: a 12-clique alone would take most of set-up.
	hotCells = interleave(
		sizes("chain", 4, 5, 6, 7, 8, 9, 10, 12),
		sizes("cycle", 4, 5, 6, 7, 8, 9, 10, 12),
		sizes("star", 4, 5, 6, 7, 8, 9, 10, 12),
		sizes("clique", 4, 5, 6, 7, 8, 9, 10),
		pairs("grid", [2]int{2, 2}, [2]int{2, 3}, [2]int{2, 4}, [2]int{3, 3}, [2]int{2, 5}, [2]int{2, 6}, [2]int{3, 4}, [2]int{4, 3}, [2]int{4, 2}),
		pairs("cycle-hyper", [2]int{4, 0}, [2]int{4, 1}, [2]int{6, 1}, [2]int{8, 0}, [2]int{8, 2}, [2]int{8, 3}, [2]int{10, 2}, [2]int{12, 3}),
		pairs("star-hyper", [2]int{4, 0}, [2]int{4, 1}, [2]int{6, 1}, [2]int{8, 1}, [2]int{8, 0}, [2]int{8, 3}, [2]int{10, 2}, [2]int{10, 3}),
		pairs("star-antijoin", [2]int{4, 1}, [2]int{6, 2}, [2]int{8, 3}, [2]int{12, 4}),
		pairs("cycle-outer", [2]int{4, 1}, [2]int{6, 2}, [2]int{8, 4}, [2]int{12, 6}),
	)

	// coldCells: the §4 shapes at sizes where exact DP is still routed,
	// hypergraphs at every split stage, and operator trees of 8–12.
	coldCells = interleave(
		sizes("chain", 8, 10, 12, 14, 16, 18, 20),
		sizes("cycle", 8, 10, 12, 14, 16, 18, 20),
		sizes("star", 8, 9, 10, 11, 12, 13, 14),
		sizes("clique", 5, 6, 7, 8, 9, 10),
		pairs("grid", [2]int{3, 3}, [2]int{3, 4}, [2]int{4, 4}),
		allSplits("cycle-hyper", 8, 10, 12),
		allSplits("star-hyper", 6, 8, 10),
		pairs("star-antijoin", [2]int{8, 4}, [2]int{10, 5}, [2]int{12, 6}),
		pairs("cycle-outer", [2]int{8, 4}, [2]int{10, 5}, [2]int{12, 6}),
	)

	// largeCells: beyond the exact cutoffs, straddling the 64/65
	// greedy/iterdp boundary. Each family keeps its largest size; the mid
	// sizes are thinned so one caller completes well over 1000 calls in a
	// 20 s window.
	largeCells = interleave(
		sizes("chain", 25, 32, 40, 52, 64, 65, 80, 100),
		sizes("cycle", 25, 32, 40, 52, 64, 65, 80, 100),
		sizes("star", 19, 32, 48, 64, 65, 100),
		sizes("clique", 15, 20, 30, 40),
		pairs("grid", [2]int{5, 5}, [2]int{6, 6}, [2]int{7, 7}, [2]int{8, 8}, [2]int{10, 10}),
	)

	// httpCells: ≤ 12 relations and cliques ≤ 7, so a cold request
	// costs at most ~3 ms; 2 of the 40 cells are trees.
	httpCells = interleave(
		sizes("chain", 4, 5, 6, 8, 10, 12),
		sizes("cycle", 4, 5, 6, 8, 10, 12),
		sizes("star", 4, 5, 6, 8, 9, 10),
		sizes("clique", 4, 5, 6, 7),
		pairs("grid", [2]int{2, 2}, [2]int{2, 3}, [2]int{2, 4}, [2]int{3, 3}, [2]int{2, 5}),
		pairs("cycle-hyper", [2]int{6, 1}, [2]int{8, 0}, [2]int{8, 2}, [2]int{8, 3}, [2]int{10, 2}),
		pairs("star-hyper", [2]int{4, 1}, [2]int{6, 1}, [2]int{8, 1}, [2]int{8, 2}, [2]int{8, 3}, [2]int{4, 0}),
		pairs("star-antijoin", [2]int{8, 3}),
		pairs("cycle-outer", [2]int{8, 4}),
	)

	// fillerCells pre-fill the plan cache during set-up, so the timed
	// misses of lib-cold and lib-large insert into a full LRU and evict.
	fillerCells = interleave(sizes("chain", 4), sizes("chain", 5), sizes("chain", 6))
)

// docSeed derives the generator seed of document i of a pool, so pools
// of one run never share a document and runs with different seeds share
// none either (splitmix64 finalizer over seed, pool name and index).
func docSeed(seed int64, pool string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(pool))
	z := uint64(seed)*0x9e3779b97f4a7c15 + h.Sum64() + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// configFor is a cell's generator configuration: DefaultConfig, or for
// lib-large LargeConfig, whose PK–FK selectivities keep the estimates of
// 100-relation chains, cycles, stars and grids finite. A clique applies
// n(n-1)/2 such selectivities and underflows to a zero cardinality from
// 16 relations on, so lib-large cliques keep LargeConfig's
// cardinalities but draw selectivities from [0.1, 1): the extra
// predicates of a clique mostly relate relations already joined.
func configFor(c cell, large bool) workload.Config {
	if !large {
		return workload.DefaultConfig()
	}
	cfg := workload.LargeConfig()
	if c.family == "clique" {
		cfg.MinSel, cfg.MaxSel = 0.1, 1
	}
	return cfg
}

// makePool generates count documents cycling through cells in order.
// Only the inputs come from the seed; the program under test sees the
// documents and nothing else.
func makePool(seed int64, name string, cells []cell, count int, large, bodies bool) ([]item, error) {
	pool := make([]item, count)
	for i := range pool {
		c := cells[i%len(cells)]
		cfg := configFor(c, large)
		cfg.Seed = docSeed(seed, name, i)
		doc := makeDoc(c, cfg)
		pool[i] = item{cell: c, doc: doc}
		if bodies {
			b, err := json.Marshal(service.PlanRequest{Query: doc})
			if err != nil {
				return nil, fmt.Errorf("marshal %s document %d: %w", name, i, err)
			}
			pool[i].body = b
		}
	}
	return pool, nil
}

// makeDoc builds one document with the internal/workload generators.
func makeDoc(c cell, cfg workload.Config) *repro.QueryJSON {
	switch c.family {
	case "chain":
		return graphDoc(workload.Chain(c.n, cfg))
	case "cycle":
		return graphDoc(workload.Cycle(c.n, cfg))
	case "star":
		return graphDoc(workload.Star(c.n, cfg))
	case "clique":
		return graphDoc(workload.Clique(c.n, cfg))
	case "grid":
		return graphDoc(workload.Grid(c.n, c.m, cfg))
	case "cycle-hyper":
		return graphDoc(workload.CycleHyper(c.n, c.m, cfg))
	case "star-hyper":
		return graphDoc(workload.StarHyper(c.n, c.m, cfg))
	case "star-antijoin":
		return treeDoc(workload.StarTree(c.n, c.m, cfg))
	case "cycle-outer":
		return treeDoc(workload.CycleTree(c.n, c.m, cfg))
	}
	panic("planbench: unknown family " + c.family)
}

func graphDoc(g *hypergraph.Graph) *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	for i := 0; i < g.NumRels(); i++ {
		r := g.Relation(i)
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		doc.Edges = append(doc.Edges, repro.EdgeJSON{
			Left: e.U.Elems(), Right: e.V.Elems(), Free: e.W.Elems(),
			Sel: e.Sel, Op: e.Op.String(), Label: e.Label,
		})
	}
	return doc
}

func treeDoc(root *optree.Node, rels []optree.RelInfo) *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	for _, r := range rels {
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: r.Name, Card: r.Card, Free: r.Free.Elems()})
	}
	var conv func(n *optree.Node) *repro.TreeJSON
	conv = func(n *optree.Node) *repro.TreeJSON {
		if n.IsLeaf() {
			rel := n.Rel
			return &repro.TreeJSON{Rel: &rel}
		}
		return &repro.TreeJSON{
			Op: n.Op.String(), Left: conv(n.Left), Right: conv(n.Right),
			Pred: n.Pred.Tables.Elems(), Sel: n.Pred.Sel, Label: n.Pred.Label,
		}
	}
	doc.Tree = conv(root)
	return doc
}

// buildTree rebuilds a tree document as an internal/optree operator
// tree, the input of the conflict analysis PlanJSON runs. Each call
// builds fresh nodes, so concurrent callers never share the analysis
// state optree.Analyze stores on them.
func buildTree(doc *repro.QueryJSON) (*optree.Node, []optree.RelInfo, error) {
	rels := make([]optree.RelInfo, len(doc.Relations))
	for i, r := range doc.Relations {
		rels[i] = optree.RelInfo{Name: r.Name, Card: r.Card, Free: bitset.New(r.Free...)}
	}
	root, err := treeNode(doc.Tree)
	return root, rels, err
}

func treeNode(t *repro.TreeJSON) (*optree.Node, error) {
	if t == nil {
		return nil, fmt.Errorf("nil tree node")
	}
	if t.Rel != nil {
		return optree.NewLeaf(*t.Rel), nil
	}
	op, err := algebra.ParseOp(t.Op)
	if err != nil {
		return nil, err
	}
	l, err := treeNode(t.Left)
	if err != nil {
		return nil, err
	}
	r, err := treeNode(t.Right)
	if err != nil {
		return nil, err
	}
	return optree.NewOp(op, l, r, optree.Predicate{Tables: bitset.New(t.Pred...), Sel: t.Sel, Label: t.Label}), nil
}

// docGraph returns the hypergraph the planner enumerates for doc: the
// document's own graph, or the TES-derived graph of a tree document.
func docGraph(doc *repro.QueryJSON) (*hypergraph.Graph, error) {
	if doc.Tree != nil {
		root, rels, err := buildTree(doc)
		if err != nil {
			return nil, err
		}
		t, err := optree.Analyze(root, rels, optree.Conservative)
		if err != nil {
			return nil, err
		}
		return t.Hypergraph(optree.TESEdges), nil
	}
	q, err := doc.BuildQuery()
	if err != nil {
		return nil, err
	}
	return q.Graph(), nil
}
