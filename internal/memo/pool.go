package memo

import "sync"

// Pool recycles Engines — table slots, plan-node arena, edge store, and
// the attached Backend with its scratch buffers — across planning calls.
// A long-lived Planner owns one Pool so that steady traffic over similar
// query sizes reaches a steady state with no enumeration-side
// allocations at all: Reset keeps backing arrays, and only the winning
// plan tree is materialized per run.
//
// A nil *Pool is valid and simply allocates fresh Engines, so solvers
// can thread an optional pool without nil checks at every call site.
type Pool struct {
	pool sync.Pool
}

// Get returns an Engine, reusing pooled storage when available. The
// caller must Reset it (internal/dp.NewRun does) before use.
func (p *Pool) Get() *Engine {
	if p != nil {
		if e, ok := p.pool.Get().(*Engine); ok {
			return e
		}
	}
	return NewEngine()
}

// Put releases e's per-run references and returns it to the pool. Plans
// materialized by Final are freshly allocated and survive; the arena and
// table storage are recycled. e must not be used after Put.
func (p *Pool) Put(e *Engine) {
	if p == nil || e == nil {
		return
	}
	if e.backend != nil {
		e.backend.Release()
	}
	e.OnEmit = nil
	e.limits = Limits{}
	e.abortErr = nil
	e.warm = true
	p.pool.Put(e)
}
