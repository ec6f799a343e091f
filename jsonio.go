package repro

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/hypergraph"
	"repro/internal/optree"
)

// QueryJSON is the on-disk query format shared by cmd/joinorder and
// cmd/querygen. A query is either a hypergraph (Relations + Edges) or an
// initial operator tree (Relations + Tree) for non-inner-join queries.
type QueryJSON struct {
	Relations []RelationJSON `json:"relations"`
	Edges     []EdgeJSON     `json:"edges,omitempty"`
	Tree      *TreeJSON      `json:"tree,omitempty"`
}

// RelationJSON describes one relation.
type RelationJSON struct {
	Name string  `json:"name"`
	Card float64 `json:"card"`
	Free []int   `json:"free,omitempty"` // dependent table references
}

// EdgeJSON describes one (possibly generalized) hyperedge.
type EdgeJSON struct {
	Left  []int   `json:"left"`
	Right []int   `json:"right"`
	Free  []int   `json:"free,omitempty"`
	Sel   float64 `json:"sel"`
	Op    string  `json:"op,omitempty"` // defaults to "join"
	Label string  `json:"label,omitempty"`
}

// TreeJSON describes one initial-operator-tree node.
type TreeJSON struct {
	Rel   *int      `json:"rel,omitempty"` // leaf
	Op    string    `json:"op,omitempty"`  // operator node
	Left  *TreeJSON `json:"left,omitempty"`
	Right *TreeJSON `json:"right,omitempty"`
	Pred  []int     `json:"pred,omitempty"` // tables the predicate references
	Sel   float64   `json:"sel,omitempty"`
	Label string    `json:"label,omitempty"`
}

// ParseQuery decodes a QueryJSON document.
func ParseQuery(data []byte) (*QueryJSON, error) {
	var q QueryJSON
	if err := json.Unmarshal(data, &q); err != nil {
		return nil, fmt.Errorf("repro: parsing query: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// Validate checks the document's structural invariants: at least one
// relation, and exactly one of edges (hypergraph document) or a tree
// (operator-tree document). ParseQuery applies it after decoding;
// servers decoding documents through other paths call it directly.
func (q *QueryJSON) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("repro: query has no relations")
	}
	if q.Tree == nil && len(q.Edges) == 0 {
		return fmt.Errorf("repro: query needs edges or a tree")
	}
	if q.Tree != nil && len(q.Edges) > 0 {
		return fmt.Errorf("repro: query cannot have both edges and a tree")
	}
	return nil
}

// PlanJSON analyzes and optimizes a decoded QueryJSON document under
// the planner's policy. The document must pass Validate. A hypergraph
// document is repaired for connectivity and enumerated; a tree document
// goes through conflict analysis first, as sent: unlike PlanTree,
// PlanJSON does not run the §5.2 simplification pass. Cancellation,
// budgets, the plan cache, and the Greedy fallback all apply as in
// Plan.
func (p *Planner) PlanJSON(ctx context.Context, q *QueryJSON, opts ...Option) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, p.fail(err)
	}
	if q.Tree != nil {
		return p.planJSONTree(ctx, q, opts)
	}
	qq, err := q.BuildQuery()
	if err != nil {
		return nil, p.fail(err)
	}
	return p.Plan(ctx, qq, opts...)
}

// BuildQuery materializes a hypergraph document as a *Query, ready for
// Planner.Plan. It fails on tree documents (those carry conflict-
// analysis state that only PlanJSON can derive) and on malformed
// relations or edges. The connectivity repair is not applied here: it
// runs, once, on the query's first planning call — so the graph (and
// its Fingerprint) observed between BuildQuery and Plan is exactly the
// document's own. Servers use this to key request coalescing by the
// graph fingerprint before committing a worker to the enumeration.
func (q *QueryJSON) BuildQuery() (*Query, error) {
	if q.Tree != nil {
		return nil, fmt.Errorf("repro: tree documents cannot build a hypergraph query directly; use PlanJSON")
	}
	g := hypergraph.New()
	g.Grow(len(q.Relations), len(q.Edges))
	var err error
	catch(&err, func() {
		for i, r := range q.Relations {
			g.AddRelation(r.Name, r.Card)
			if len(r.Free) > 0 {
				g.SetFree(i, bitset.New(r.Free...))
			}
		}
		for _, e := range q.Edges {
			op := algebra.Join
			if e.Op != "" {
				var perr error
				op, perr = algebra.ParseOp(e.Op)
				if perr != nil {
					panic(perr)
				}
			}
			g.AddEdge(hypergraph.Edge{
				U: bitset.New(e.Left...), V: bitset.New(e.Right...),
				W: bitset.New(e.Free...), Sel: e.Sel, Op: op, Label: e.Label,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return &Query{g: g}, nil
}

func (p *Planner) planJSONTree(ctx context.Context, q *QueryJSON, opts []Option) (*Result, error) {
	o := p.merged(ctx, opts)
	o.noSimplify = true // documents are planned as sent; see PlanJSON
	rels := make([]optree.RelInfo, len(q.Relations))
	for i, r := range q.Relations {
		rels[i] = optree.RelInfo{Name: r.Name, Card: r.Card, Free: bitset.New(r.Free...)}
	}
	root, err := buildTreeJSON(q.Tree)
	if err != nil {
		return nil, p.fail(err)
	}
	g, filter, err := deriveGraph(root, rels, o)
	if err != nil {
		return nil, p.fail(err)
	}
	return p.planGraph(ctx, g, o, filter)
}

func buildTreeJSON(n *TreeJSON) (*optree.Node, error) {
	if n == nil {
		return nil, fmt.Errorf("repro: nil tree node")
	}
	if n.Rel != nil {
		return optree.NewLeaf(*n.Rel), nil
	}
	op, err := algebra.ParseOp(n.Op)
	if err != nil {
		return nil, err
	}
	l, err := buildTreeJSON(n.Left)
	if err != nil {
		return nil, err
	}
	r, err := buildTreeJSON(n.Right)
	if err != nil {
		return nil, err
	}
	return optree.NewOp(op, l, r, optree.Predicate{
		Tables: bitset.New(n.Pred...),
		Sel:    n.Sel,
		Label:  n.Label,
	}), nil
}

func catch(err *error, f func()) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				*err = e
				return
			}
			*err = fmt.Errorf("repro: %v", r)
		}
	}()
	f()
}
