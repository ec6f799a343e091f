package memo

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// parShared is the run-wide state of one parallel enumeration: budget
// counters charged atomically by every worker, and the first abort
// cause (cancellation or budget trip), published so sibling workers
// stop at their next poll.
type parShared struct {
	pairs   atomic.Int64 //dp:atomic
	plans   atomic.Int64 //dp:atomic
	aborted atomic.Bool  //dp:atomic

	mu  sync.Mutex
	err error
}

func (sh *parShared) reset() {
	sh.pairs.Store(0)
	sh.plans.Store(0)
	sh.aborted.Store(false)
	sh.mu.Lock()
	sh.err = nil
	sh.mu.Unlock()
}

// abort records the first cause; later causes are dropped so every
// worker reports the same error.
func (sh *parShared) abort(err error) {
	sh.mu.Lock()
	if sh.err == nil {
		sh.err = err
		sh.aborted.Store(true)
	}
	sh.mu.Unlock()
}

func (sh *parShared) cause() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.err
}

// Par orchestrates a level-synchronous parallel enumeration over one
// main engine. Each worker owns a private view (an Engine layered over
// the main one): during a level, workers read the main table and arena
// — frozen between barriers — and write candidate plans only into
// their own view, so no lock is ever taken on the enumeration path.
// FinishLevel merges the per-worker levels back into the main engine,
// resolving duplicate relation sets with the same order-independent
// tie-break Improve applies, which makes the merged state — and hence
// the final plan — identical at any worker count, and identical to the
// serial engine's.
//
// A Par is created once per main engine and recycled with it through
// the Pool: the worker views, their tables, arenas, and attached
// backends all survive pool round-trips.
type Par struct {
	Main *Engine
	Ws   []*Engine

	sh parShared

	// Barrier-merge scratch, reused across levels and pool round-trips
	// (the sorter wrapper exists so the sort takes no per-call closure
	// or interface-boxing allocation).
	ents   []mergeEnt
	sorter entSorter
}

// Parallel prepares (or revives) the engine's parallel orchestration
// with n worker views and arms the shared budget/abort state from the
// engine's current Limits. n must be at least 2. Call after Reset,
// SetLimits, and the backend attachment for the run.
func (e *Engine) Parallel(n int) *Par {
	if e.par == nil {
		e.par = &Par{Main: e}
	}
	p := e.par
	p.sh.reset()
	for len(p.Ws) < n {
		p.Ws = append(p.Ws, &Engine{parent: e})
	}
	ws := p.Ws[:n]
	// Worker tables are sized (and shrink-bounded) once per run: a level
	// holds at most the run's entries split across the workers, and the
	// main table was just Reset with the run's hint. Between levels
	// StartLevel only clears them — level sizes within one run swing too
	// wildly for per-level shrink heuristics (see Table.Clear).
	hint := e.table.Cap() / n
	for _, w := range ws {
		w.Stats = Stats{}
		w.OnEmit = nil
		w.limits = e.limits
		w.steps = 0
		w.abortErr = nil
		w.shared = &p.sh
		w.nodes = w.nodes[:0]
		w.edges = w.edges[:0]
		w.table.Reset(hint)
	}
	e.Stats.Workers = n
	// Always a fresh slice: Stats — including this header — is copied
	// into Results and the plan cache when the run finishes, so reusing
	// backing storage across runs would mutate plans already handed out.
	e.Stats.WorkerPairs = make([]int, n)
	return p
}

// Workers returns the active worker views.
func (p *Par) Workers() []*Engine { return p.Ws[:p.Main.Stats.Workers] }

// StartLevel opens a level: every worker's private table and arena are
// cleared (capacity kept — Parallel sized them for the run) and its
// arena base pinned to the current end of the main arena, so plans
// built this level reference merged children by their final handles and
// need no remapping at the barrier.
func (p *Par) StartLevel() {
	base := p.Main.base + int32(len(p.Main.nodes))
	for _, w := range p.Workers() {
		w.table.Clear()
		w.nodes = w.nodes[:0]
		w.edges = w.edges[:0]
		w.base = base
	}
}

// mergeEnt is one per-worker level entry awaiting the barrier merge.
type mergeEnt struct {
	S bitset.Set
	w *Engine
	h int32 // local arena index within w
}

// entSorter orders merge entries by relation set; a pointer to the
// Par-owned instance satisfies sort.Interface without allocating.
type entSorter struct{ s []mergeEnt }

func (e *entSorter) Len() int           { return len(e.s) }
func (e *entSorter) Swap(i, j int)      { e.s[i], e.s[j] = e.s[j], e.s[i] }
func (e *entSorter) Less(i, j int) bool { return e.s[i].S.Less(e.s[j].S) }

// FinishLevel is the level barrier: it folds every worker's private
// entries into the main table and arena and accumulates the workers'
// counters into the main Stats. Duplicate relation sets (the same S
// reached by pairs that landed on different workers) are resolved by
// cost, then by the order-independent tie-break, so the merged winner
// does not depend on how candidates were partitioned. Entries are
// installed in ascending relation-set order, which makes the main
// engine's slot layout — and ForEach order — independent of scheduling.
func (p *Par) FinishLevel() {
	m := p.Main
	ents := p.ents[:0]
	for i, w := range p.Workers() {
		w.table.ForEach(func(S bitset.Set, h int32) {
			ents = append(ents, mergeEnt{S: S, w: w, h: h - w.base})
		})
		st := &w.Stats
		m.Stats.CsgCmpPairs += st.CsgCmpPairs
		m.Stats.WorkerPairs[i] += st.CsgCmpPairs
		m.Stats.CostedPlans += st.CostedPlans
		m.Stats.FilterReject += st.FilterReject
		m.Stats.InvalidReject += st.InvalidReject
		m.Stats.AmbiguousOps += st.AmbiguousOps
		*st = Stats{}
	}
	p.ents = ents // keep grown storage for the next level
	p.sorter.s = ents
	sort.Sort(&p.sorter)

	for i := 0; i < len(ents); {
		j := i + 1
		best := ents[i]
		bn := &best.w.nodes[best.h]
		for ; j < len(ents) && ents[j].S.Equal(best.S); j++ {
			cand := ents[j]
			cn := &cand.w.nodes[cand.h]
			if cn.cost < bn.cost ||
				(cn.cost == bn.cost && m.tieBeats(cn.left, cn.right, bn.left, bn.right)) {
				best, bn = cand, cn
			}
		}
		n := *bn
		if n.edgeCnt > 0 {
			off := int32(len(m.edges))
			m.edges = append(m.edges, best.w.edges[n.edgeOff:n.edgeOff+n.edgeCnt]...)
			n.edgeOff = off
		}
		h := int32(len(m.nodes))
		m.nodes = append(m.nodes, n)
		m.table.Put(best.S, h)
		i = j
	}

	if p.sh.aborted.Load() && m.abortErr == nil {
		m.abortErr = p.sh.cause()
	}
}

// Aborted returns the run-wide abort cause, if any worker tripped a
// limit or observed cancellation, without waiting for a barrier.
func (p *Par) Aborted() error {
	if p.sh.aborted.Load() {
		return p.sh.cause()
	}
	return p.Main.abortErr
}
