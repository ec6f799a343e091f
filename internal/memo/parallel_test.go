package memo

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

// storeBackend improves a fixed plan per emitted pair so engine-level
// parallel tests can drive Improve without the dp layer.
type storeBackend struct {
	e    *Engine
	cost func(S1, S2 bitset.Set) float64
}

func (b *storeBackend) BuildPair(S1, S2 bitset.Set) {
	lh, _ := b.e.Lookup(S1)
	rh, _ := b.e.Lookup(S2)
	if !b.e.ChargePlan() {
		return
	}
	b.e.Improve(S1.Union(S2), lh, rh, algebra.Join, algebra.PhysNone, 1, b.cost(S1, S2), nil)
}

func (b *storeBackend) Release() {}

// levelEntry snapshots one merged memo entry for comparison.
type levelEntry struct {
	S           bitset.Set
	cost        float64
	left, right bitset.Set
}

func (a levelEntry) equal(b levelEntry) bool {
	return a.S.Equal(b.S) && a.cost == b.cost && a.left.Equal(b.left) && a.right.Equal(b.right)
}

// runMergeScenario seeds singletons {0..3}, then emits the size-4
// partitions of {0,1,2,3} across nw workers in the given per-worker
// arrangement, merges, and returns the entry for the full set.
func runMergeScenario(t *testing.T, nw int, assign [][][2]bitset.Set, cost func(S1, S2 bitset.Set) float64) levelEntry {
	t.Helper()
	e := NewEngine()
	e.Reset(4)
	for i := 0; i < 4; i++ {
		e.EmitBase(i, 10)
	}
	// Seed the size-2 children the size-4 pairs reference.
	sb := &storeBackend{e: e, cost: cost}
	e.SetBackend(sb)
	for _, pair := range [][2]bitset.Set{
		{bitset.New(0), bitset.New(1)}, {bitset.New(2), bitset.New(3)},
		{bitset.New(0), bitset.New(2)}, {bitset.New(1), bitset.New(3)},
	} {
		e.EmitPair(pair[0], pair[1])
	}

	p := e.Parallel(nw)
	for _, w := range p.Workers() {
		wb := &storeBackend{e: w, cost: cost}
		w.SetBackend(wb)
	}
	p.StartLevel()
	var wg sync.WaitGroup
	for wi, pairs := range assign {
		w := p.Workers()[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pr := range pairs {
				w.EmitPair(pr[0], pr[1])
			}
		}()
	}
	wg.Wait()
	before := e.Entries()
	p.FinishLevel(LevelBuilt)
	if added := e.Entries() - before; added != 1 {
		t.Fatalf("merge added %d entries, want only %v", added, bitset.Full(4))
	}
	h, ok := e.Lookup(bitset.Full(4))
	if !ok {
		t.Fatal("merged entry missing")
	}
	n := e.nodeAt(h)
	return levelEntry{S: n.rels, cost: n.cost,
		left: e.nodeAt(n.left).rels, right: e.nodeAt(n.right).rels}
}

// TestParallelMergeTieBreakOrderIndependent: equal-cost candidates for
// the same set must resolve to the lexicographically lowest
// (left, right) split no matter which worker found which candidate or
// in what order.
func TestParallelMergeTieBreakOrderIndependent(t *testing.T) {
	flat := func(S1, S2 bitset.Set) float64 { return 100 } // all plans tie
	pairs := [][2]bitset.Set{
		{bitset.New(0, 2), bitset.New(1, 3)},
		{bitset.New(0, 1), bitset.New(2, 3)},
	}
	want := levelEntry{S: bitset.Full(4), cost: 100,
		left: bitset.New(0, 1), right: bitset.New(2, 3)}

	arrangements := [][][][2]bitset.Set{
		{{pairs[0], pairs[1]}, nil},        // both on worker 0, worse split first
		{{pairs[1], pairs[0]}, nil},        // both on worker 0, best split first
		{{pairs[0]}, {pairs[1]}},           // split across workers
		{{pairs[1]}, {pairs[0]}},           // split the other way
		{nil, {pairs[0], pairs[1]}},        // all on worker 1
		{{pairs[0], pairs[1]}, {pairs[0]}}, // duplicate candidate on both
	}
	for i, a := range arrangements {
		got := runMergeScenario(t, 2, a, flat)
		if !got.equal(want) {
			t.Errorf("arrangement %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestParallelMergePrefersCheaper: cost still dominates the tie-break.
func TestParallelMergePrefersCheaper(t *testing.T) {
	cheaperHigh := func(S1, S2 bitset.Set) float64 {
		if S1.Equal(bitset.New(0, 2)) {
			return 50 // the lexicographically larger split is cheaper
		}
		return 100
	}
	got := runMergeScenario(t, 2,
		[][][2]bitset.Set{{{bitset.New(0, 1), bitset.New(2, 3)}}, {{bitset.New(0, 2), bitset.New(1, 3)}}},
		cheaperHigh)
	if got.cost != 50 || !got.left.Equal(bitset.New(0, 2)) {
		t.Errorf("got %+v, want the cheaper {0,2}x{1,3} split at cost 50", got)
	}
}

// TestSerialImproveTieBreakMatchesMerge: the serial engine applies the
// same order-independent rule, so serial and merged parallel state
// agree on equal-cost ties regardless of arrival order.
func TestSerialImproveTieBreakMatchesMerge(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		e := NewEngine()
		e.Reset(4)
		for i := 0; i < 4; i++ {
			e.EmitBase(i, 10)
		}
		sb := &storeBackend{e: e, cost: func(_, _ bitset.Set) float64 { return 100 }}
		e.SetBackend(sb)
		for _, pr := range [][2]bitset.Set{
			{bitset.New(0), bitset.New(1)}, {bitset.New(2), bitset.New(3)},
			{bitset.New(0), bitset.New(2)}, {bitset.New(1), bitset.New(3)},
		} {
			e.EmitPair(pr[0], pr[1])
		}
		pairs := [][2]bitset.Set{
			{bitset.New(0, 1), bitset.New(2, 3)},
			{bitset.New(0, 2), bitset.New(1, 3)},
		}
		e.EmitPair(pairs[order[0]][0], pairs[order[0]][1])
		e.EmitPair(pairs[order[1]][0], pairs[order[1]][1])
		h, ok := e.Lookup(bitset.Full(4))
		if !ok {
			t.Fatal("no entry")
		}
		n := e.nodeAt(h)
		if !e.nodeAt(n.left).rels.Equal(bitset.New(0, 1)) {
			t.Errorf("order %v: winner left = %v, want {0,1}", order, e.nodeAt(n.left).rels)
		}
	}
}

// TestParallelBudgetSharedAcrossWorkers: the pair budget bounds the sum
// of emissions over all workers, and the trip aborts the main engine at
// the barrier with ErrBudgetExhausted.
func TestParallelBudgetSharedAcrossWorkers(t *testing.T) {
	e := NewEngine()
	e.Reset(4)
	e.SetLimits(Limits{MaxCsgCmpPairs: 3})
	for i := 0; i < 4; i++ {
		e.EmitBase(i, 10)
	}
	p := e.Parallel(2)
	for _, w := range p.Workers() {
		w.SetBackend(&storeBackend{e: w, cost: func(_, _ bitset.Set) float64 { return 1 }})
	}
	p.StartLevel()
	var wg sync.WaitGroup
	for _, w := range p.Workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				w.EmitPair(bitset.New(0), bitset.New(1))
			}
		}()
	}
	wg.Wait()
	p.FinishLevel(LevelBuilt)
	if err := e.Aborted(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Aborted() = %v, want ErrBudgetExhausted", err)
	}
	if _, err := e.Final(bitset.Full(4)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Final = %v, want ErrBudgetExhausted", err)
	}
}

// TestParallelCancellationPropagates: a cancelled context observed by
// one worker stops the others and surfaces from Final.
func TestParallelCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine()
	e.Reset(4)
	e.SetLimits(Limits{Ctx: ctx})
	for i := 0; i < 4; i++ {
		e.EmitBase(i, 10)
	}
	p := e.Parallel(2)
	for _, w := range p.Workers() {
		w.SetBackend(&storeBackend{e: w, cost: func(_, _ bitset.Set) float64 { return 1 }})
	}
	p.StartLevel()
	w := p.Workers()[0]
	for i := 0; i < 10*pollInterval && w.Step(); i++ {
	}
	if w.Aborted() == nil {
		t.Fatal("worker did not observe cancellation")
	}
	p.FinishLevel(LevelBuilt)
	if !errors.Is(e.Aborted(), context.Canceled) {
		t.Fatalf("main Aborted() = %v, want context.Canceled", e.Aborted())
	}
}

// TestParallelPoolRecycle: worker views, their arenas, and the shared
// state survive a pool round-trip and a second parallel run starts
// clean.
func TestParallelPoolRecycle(t *testing.T) {
	pool := &Pool{}
	run := func() *Engine {
		e := pool.Get()
		e.Reset(4)
		for i := 0; i < 4; i++ {
			e.EmitBase(i, 10)
		}
		p := e.Parallel(2)
		for _, w := range p.Workers() {
			w.SetBackend(&storeBackend{e: w, cost: func(_, _ bitset.Set) float64 { return 1 }})
		}
		p.StartLevel()
		p.Workers()[0].EmitPair(bitset.New(0), bitset.New(1))
		p.Workers()[1].EmitPair(bitset.New(2), bitset.New(3))
		p.FinishLevel(LevelBuilt)
		for _, S := range []bitset.Set{bitset.New(0, 1), bitset.New(2, 3)} {
			if _, ok := e.Lookup(S); !ok {
				t.Fatalf("level did not merge %v", S)
			}
		}
		if e.Stats.CsgCmpPairs != 2 || e.Stats.Workers != 2 {
			t.Fatalf("stats = %+v", e.Stats)
		}
		return e
	}
	e1 := run()
	pool.Put(e1)
	e2 := pool.Get()
	if e2 != e1 {
		t.Skip("pool did not recycle the engine (GC ran); nothing to verify")
	}
	run()
	pool.Put(e2)
}
