package repro

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/hypergraph"
)

// RelID identifies a relation within a Query.
type RelID int

// Query describes an inner-join query as a hypergraph: relations with
// cardinalities and join predicates with selectivities. Predicates over
// two relations become simple edges; predicates spanning more relations
// become hyperedges (§2.1); predicates with relations that may appear on
// either side become generalized hyperedges (§6).
type Query struct {
	g   *hypergraph.Graph
	err error

	// repair runs the §2.1 connectivity repair exactly once, on the
	// first planning call. The hypergraph is effectively frozen from
	// that point on: re-planning the same query (which a caching Planner
	// does constantly) must not re-add cross edges, and relations added
	// after the first plan are not re-repaired.
	repair sync.Once
}

// NewQuery returns an empty query.
func NewQuery() *Query { return &Query{g: hypergraph.New()} }

// Relation adds a base relation with the given estimated cardinality.
func (q *Query) Relation(name string, card float64) RelID {
	if q.err != nil {
		return -1
	}
	id, err := q.catch(func() int { return q.g.AddRelation(name, card) })
	if err != nil {
		q.err = err
		return -1
	}
	return RelID(id)
}

// DependentRelation adds a table-valued expression whose evaluation
// references the relations in `on` (§5.6's S(R)). The optimizer places
// it on the right of a dependent join whose left side provides `on`.
func (q *Query) DependentRelation(name string, card float64, on ...RelID) RelID {
	id := q.Relation(name, card)
	if q.err != nil {
		return -1
	}
	free, err := q.toSet(on)
	if err != nil {
		q.err = err
		return -1
	}
	_, err = q.catch(func() int { q.g.SetFree(int(id), free); return 0 })
	if err != nil {
		q.err = err
		return -1
	}
	return id
}

// Join adds a binary join predicate between a and b.
func (q *Query) Join(a, b RelID, sel float64) {
	q.ComplexJoin([]RelID{a}, []RelID{b}, sel)
}

// ComplexJoin adds a predicate whose left side references all of `left`
// and whose right side references all of `right`, forming the hyperedge
// (left, right).
func (q *Query) ComplexJoin(left, right []RelID, sel float64) {
	q.FlexibleJoin(left, right, nil, sel)
}

// FlexibleJoin adds a generalized hyperedge (left, right, free): the
// relations in `free` may be placed on either side of the join
// (Definition 6), as with predicates like R1.a + R2.b = R3.c + R4.d
// where algebra allows moving terms across the equality.
func (q *Query) FlexibleJoin(left, right, free []RelID, sel float64) {
	if q.err != nil {
		return
	}
	u, err := q.toSet(left)
	if err == nil {
		var v, w bitset.Set
		v, err = q.toSet(right)
		if err == nil {
			w, err = q.toSet(free)
			if err == nil {
				_, err = q.catch(func() int {
					q.g.AddEdge(hypergraph.Edge{U: u, V: v, W: w, Sel: sel})
					return 0
				})
			}
		}
	}
	if err != nil {
		q.err = err
	}
}

// Graph exposes the underlying hypergraph (read-mostly; used by tools).
func (q *Query) Graph() *Graph { return q.g }

// Err returns the first construction error, if any.
func (q *Query) Err() error { return q.err }

// ensureConnected applies the §2.1 connectivity repair exactly once;
// concurrent planning calls on the same query serialize on the sync.Once
// so the graph is mutated by at most one goroutine, before any of them
// starts enumerating. The check reads the connectivity the graph's
// derived index computes anyway, so a connected query pays nothing for
// it.
func (q *Query) ensureConnected() {
	q.repair.Do(func() {
		if whole, _ := q.g.Connectivity(); !whole {
			q.g.MakeConnected()
		}
	})
}

func (q *Query) toSet(ids []RelID) (bitset.Set, error) {
	var s bitset.Set
	for _, id := range ids {
		if id < 0 || int(id) >= q.g.NumRels() {
			return bitset.Empty, fmt.Errorf("repro: unknown relation id %d", id)
		}
		s = s.Add(int(id))
	}
	return s, nil
}

// catch converts panics from the internal builders (which use panics for
// programming errors) into errors at the public boundary.
func (q *Query) catch(f func() int) (id int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("repro: %v", r)
		}
	}()
	return f(), nil
}
