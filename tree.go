package repro

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/algebra"
	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/optree"
	"repro/internal/simplify"
)

// TreeQuery describes a query with non-inner joins as an initial operator
// tree (§5.3). Tables must be declared in the left-to-right order in
// which they appear in the tree (the §5.4 numbering convention); the
// expression combinators then build the tree bottom-up.
type TreeQuery struct {
	rels []optree.RelInfo
	err  error

	// mu serializes conflict analysis and hypergraph derivation: the
	// §5.2 simplification pass rewrites the operator tree in place and
	// optree.Analyze stores eligibility sets on the shared nodes, so
	// concurrent PlanTree calls on one TreeQuery must not analyze or
	// read those nodes simultaneously. Enumeration runs on the derived
	// per-call hypergraph (and a filter that copies its TES data),
	// outside the lock.
	mu sync.Mutex
}

// NewTreeQuery returns an empty tree query.
func NewTreeQuery() *TreeQuery { return &TreeQuery{} }

// Expr is a relational expression under construction: a table or the
// application of a binary operator to two expressions.
type Expr struct {
	q    *TreeQuery
	node *optree.Node
	rels bitset.Set
}

// Table declares the next base table. Declaration order defines the
// left-to-right leaf order of the final tree.
func (t *TreeQuery) Table(name string, card float64) *Expr {
	if !(card > 0) || math.IsInf(card, 1) { // NaN fails the comparison
		t.fail(fmt.Errorf("repro: table %q has cardinality %g, want finite and positive", name, card))
	}
	id := len(t.rels)
	t.rels = append(t.rels, optree.RelInfo{Name: name, Card: card})
	return &Expr{q: t, node: optree.NewLeaf(id), rels: bitset.Single(id)}
}

// DependentTable declares a table-valued expression referencing the given
// outer tables (§5.6).
func (t *TreeQuery) DependentTable(name string, card float64, on ...*Expr) *Expr {
	e := t.Table(name, card)
	var free bitset.Set
	for _, o := range on {
		if !o.rels.IsSingleton() {
			t.fail(fmt.Errorf("repro: dependent table %q must reference base tables", name))
			return e
		}
		free = free.Union(o.rels)
	}
	t.rels[len(t.rels)-1].Free = free
	return e
}

func (t *TreeQuery) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// JoinOption refines an operator application.
type JoinOption func(*joinConfig)

type joinConfig struct {
	on      bitset.Set
	label   string
	payload any
	agg     bool
}

// On sets the tables the predicate references (default: the first table
// of each side).
func On(tables ...*Expr) JoinOption {
	return func(c *joinConfig) {
		for _, t := range tables {
			c.on = c.on.Union(t.rels)
		}
	}
}

// Label names the predicate in plan output.
func Label(s string) JoinOption { return func(c *joinConfig) { c.label = s } }

// Payload attaches an executable predicate (see internal/exec.JoinSpec)
// carried through to the optimized plan's edges.
func Payload(p any) JoinOption { return func(c *joinConfig) { c.payload = p } }

// Join applies an inner join.
func (e *Expr) Join(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.Join, r, sel, opts)
}

// LeftOuterJoin applies a left outer join (P).
func (e *Expr) LeftOuterJoin(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.LeftOuter, r, sel, opts)
}

// FullOuterJoin applies a full outer join (M).
func (e *Expr) FullOuterJoin(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.FullOuter, r, sel, opts)
}

// SemiJoin applies a left semijoin (G).
func (e *Expr) SemiJoin(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.SemiJoin, r, sel, opts)
}

// AntiJoin applies a left antijoin (I).
func (e *Expr) AntiJoin(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.AntiJoin, r, sel, opts)
}

// NestJoin applies a left nestjoin (T): binary grouping, one output tuple
// per left tuple with aggregated match groups (§5.1).
func (e *Expr) NestJoin(r *Expr, sel float64, opts ...JoinOption) *Expr {
	return e.apply(algebra.NestJoin, r, sel, opts)
}

func (e *Expr) apply(op algebra.Op, r *Expr, sel float64, opts []JoinOption) *Expr {
	if e.q != r.q {
		e.q.fail(fmt.Errorf("repro: mixing expressions from different tree queries"))
		return e
	}
	if e.rels.Overlaps(r.rels) {
		e.q.fail(fmt.Errorf("repro: expression reuses tables %v", e.rels.Intersect(r.rels)))
		return e
	}
	var c joinConfig
	for _, o := range opts {
		o(&c)
	}
	if c.on.IsEmpty() {
		c.on = e.rels.MinSet().Union(r.rels.MinSet())
	}
	node := optree.NewOp(op, e.node, r.node, optree.Predicate{
		Tables:  c.on,
		Sel:     sel,
		Label:   c.label,
		Payload: c.payload,
	})
	return &Expr{q: e.q, node: node, rels: e.rels.Union(r.rels)}
}

// Analyze validates the tree and computes SES/TES eligibility sets,
// returning the derived hypergraph without optimizing. Useful for
// inspecting the conflict analysis.
func (t *TreeQuery) Analyze(root *Expr, opts ...Option) (*Graph, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	g, _, err := t.derive(root, o)
	return g, err
}

// derive runs deriveGraph over the query's tree under the query's lock.
// The returned graph and filter hold no references to the mutable tree
// state, so enumeration can proceed concurrently with other
// derivations.
func (t *TreeQuery) derive(root *Expr, o options) (*Graph, dp.Filter, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return nil, nil, t.err
	}
	if root == nil || root.q != t {
		return nil, nil, fmt.Errorf("repro: root expression does not belong to this query")
	}
	return deriveGraph(root.node, t.rels, o)
}

// deriveGraph is the one SES/TES derivation behind PlanTree and
// PlanJSON. Unless o.noSimplify is set it first runs the §5.2
// simplification pass, which rewrites root in place: outer joins
// refuted by strong predicates above them are degraded before conflict
// analysis. It then analyzes the tree and builds the query hypergraph:
// the TES graph, or under WithGenerateAndTest the SES graph plus the
// late TES filter (§5.8).
func deriveGraph(root *optree.Node, rels []optree.RelInfo, o options) (*Graph, dp.Filter, error) {
	if !o.noSimplify {
		simplify.Simplify(root)
	}
	tr, err := optree.Analyze(root, rels, o.rule)
	if err != nil {
		return nil, nil, err
	}
	if o.genAndTest {
		g := tr.Hypergraph(optree.SESEdges)
		return g, tr.Filter(g), nil
	}
	return tr.Hypergraph(optree.TESEdges), nil, nil
}

// InitialTree renders the initial operator tree (for documentation and
// debugging).
func (t *TreeQuery) InitialTree(root *Expr) string {
	if root == nil {
		return ""
	}
	return root.node.String()
}
