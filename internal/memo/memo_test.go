package memo

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bitset"
)

// lcg is a tiny deterministic pseudo-random source so table tests are
// reproducible without seeding math/rand.
type lcg uint64

// fromBits builds a Set from a word-0 bit pattern, standing in for the
// raw integer conversions the packed-word representation used to allow.
func fromBits(raw uint64) bitset.Set {
	var s bitset.Set
	for e := 0; e < 64; e++ {
		if raw&(1<<uint(e)) != 0 {
			s = s.Add(e)
		}
	}
	return s
}

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

func TestTableBasic(t *testing.T) {
	var tb Table
	tb.Reset(0)
	if tb.Len() != 0 {
		t.Fatalf("fresh table Len = %d", tb.Len())
	}
	if _, ok := tb.Get(bitset.New(3)); ok {
		t.Fatal("Get on empty table must miss")
	}
	tb.Put(bitset.New(3), 7)
	tb.Put(bitset.New(1, 2), 9)
	if v, ok := tb.Get(bitset.New(3)); !ok || v != 7 {
		t.Fatalf("Get = %d,%t want 7,true", v, ok)
	}
	tb.Put(bitset.New(3), 8) // overwrite must not grow Len
	if v, _ := tb.Get(bitset.New(3)); v != 8 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d want 2", tb.Len())
	}
}

func TestTableGetEmptyMisses(t *testing.T) {
	var tb Table
	tb.Reset(0)
	tb.Put(bitset.New(1), 5)
	// The empty set is the free-slot sentinel; looking it up must miss
	// rather than match a free slot and return its stale value.
	if v, ok := tb.Get(bitset.Empty); ok {
		t.Fatalf("Get(Empty) = %d,true — matched the free-slot sentinel", v)
	}
}

func TestTablePutEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(Empty) must panic: the empty set is the free-slot sentinel")
		}
	}()
	var tb Table
	tb.Reset(0)
	tb.Put(bitset.Empty, 1)
}

// TestTableGrowthCollisionHeavy drives the table through several rehashes
// with keys chosen to hash into a single slot of the initial table, the
// worst case for linear probing: one long cluster that must stay intact
// across growth.
func TestTableGrowthCollisionHeavy(t *testing.T) {
	var tb Table
	tb.Reset(0)
	if tb.Cap() != minSlots {
		t.Fatalf("initial capacity = %d want %d", tb.Cap(), minSlots)
	}
	shift := uint(64 - 6) // 64 slots
	var keys []bitset.Set
	for k := uint64(1); len(keys) < 300; k++ {
		if fromBits(k).Hash()>>shift == 0 { // all collide in slot 0 initially
			keys = append(keys, fromBits(k))
		}
	}
	for i, k := range keys {
		tb.Put(k, int32(i))
	}
	if tb.Grows() == 0 {
		t.Fatal("300 colliding inserts into 64 slots must rehash")
	}
	if tb.Len() != len(keys) {
		t.Fatalf("Len = %d want %d", tb.Len(), len(keys))
	}
	for i, k := range keys {
		if v, ok := tb.Get(k); !ok || v != int32(i) {
			t.Fatalf("key %v lost across rehash: got %d,%t", k, v, ok)
		}
	}
	// Absent keys must still miss (the probe chains must terminate).
	misses := 0
	for k := uint64(1); misses < 100; k++ {
		s := fromBits(k * 2654435761)
		if s.IsEmpty() {
			continue
		}
		found := false
		for _, have := range keys {
			if have.Equal(s) {
				found = true
				break
			}
		}
		if !found {
			misses++
			if _, ok := tb.Get(s); ok {
				t.Fatalf("phantom hit for %v", s)
			}
		}
	}
}

// TestTableMatchesMap cross-checks a large random workload against a Go
// map, including overwrites, on the open-addressing table and on the
// direct-indexed one, whose key stream is masked to its 16 relations.
func TestTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset func(*Table)
		mask  uint64
	}{
		{"hashed", func(tb *Table) { tb.Reset(16) }, ^uint64(0)},
		{"direct", func(tb *Table) { tb.ResetDirect(DirectMaxRels) }, 1<<DirectMaxRels - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tb Table
			tc.reset(&tb)
			ref := make(map[string]int32)
			refKey := make(map[string]bitset.Set)
			r := lcg(42)
			for i := 0; i < 50_000; i++ {
				k := fromBits(r.next() & tc.mask)
				if k.IsEmpty() {
					continue
				}
				v := int32(r.next() >> 33)
				tb.Put(k, v)
				ref[k.Key()] = v
				refKey[k.Key()] = k
			}
			if tb.Len() != len(ref) {
				t.Fatalf("Len = %d want %d", tb.Len(), len(ref))
			}
			for key, v := range ref {
				if got, ok := tb.Get(refKey[key]); !ok || got != v {
					t.Fatalf("Get(%v) = %d,%t want %d,true", refKey[key], got, ok, v)
				}
			}
			// Keys the workload never stored must miss, on the direct
			// table too, whose free slots hold 0.
			for i := 0; i < 1000; i++ {
				k := fromBits(r.next() & tc.mask)
				if _, stored := ref[k.Key()]; stored {
					continue
				}
				if v, ok := tb.Get(k); ok {
					t.Fatalf("Get(%v) = %d,true for a key never stored", k, v)
				}
			}
		})
	}
}

// TestTableDirectBounds checks the direct-indexed table's edges: the
// empty set and sets outside the run's relations miss, Put panics on
// them, Cap reports 2^n slots and Grows stays 0.
func TestTableDirectBounds(t *testing.T) {
	var tb Table
	tb.ResetDirect(4)
	tb.Put(bitset.New(0, 3), 7)
	if tb.Cap() != 16 || tb.Grows() != 0 || tb.Len() != 1 {
		t.Fatalf("Cap %d Grows %d Len %d, want 16, 0, 1", tb.Cap(), tb.Grows(), tb.Len())
	}
	for _, k := range []bitset.Set{bitset.Empty, bitset.New(4), bitset.New(0, 3, 63), bitset.New(0, 3, 64)} {
		if v, ok := tb.Get(k); ok {
			t.Errorf("Get(%v) = %d,true outside a 4-relation run", k, v)
		}
	}
	for _, k := range []bitset.Set{bitset.Empty, bitset.New(4), bitset.New(70)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%v) did not panic in a 4-relation run", k)
				}
			}()
			tb.Put(k, 1)
		}()
	}
}

func TestTableResetKeepsStorage(t *testing.T) {
	var tb Table
	tb.Reset(400)
	capBefore := tb.Cap()
	tb.Put(bitset.New(1), 1)
	// A moderately smaller hint (within shrinkFactor) must keep and
	// clear the existing arrays.
	if kept := tb.Reset(200); !kept {
		t.Fatal("Reset within the shrink bound must keep storage")
	}
	if tb.Cap() != capBefore {
		t.Fatalf("Reset reallocated: cap %d -> %d", capBefore, tb.Cap())
	}
	if tb.Len() != 0 {
		t.Fatalf("Reset did not clear: Len = %d", tb.Len())
	}
	if _, ok := tb.Get(bitset.New(1)); ok {
		t.Fatal("entry survived Reset")
	}
}

func TestTableResetShrinksOversized(t *testing.T) {
	var tb Table
	tb.Reset(100_000)
	huge := tb.Cap()
	// A tiny hint after a huge run must reallocate small: pooled
	// engines must not pin one giant query's storage forever.
	if kept := tb.Reset(4); kept {
		t.Fatal("Reset far below the shrink bound must reallocate")
	}
	if tb.Cap() >= huge {
		t.Fatalf("oversized table not shrunk: cap %d -> %d", huge, tb.Cap())
	}
	if tb.Cap() != minSlots {
		t.Fatalf("shrunk capacity = %d, want %d", tb.Cap(), minSlots)
	}
}

// recordBackend is a minimal Backend that admits every offered pair
// through ChargePair and records the pairs it admitted.
type recordBackend struct {
	e     *Engine
	pairs [][2]bitset.Set
}

func (b *recordBackend) BuildPair(S1, S2 bitset.Set) bool {
	if !b.e.ChargePair(S1, S2) {
		return false
	}
	b.pairs = append(b.pairs, [2]bitset.Set{S1, S2})
	return true
}
func (b *recordBackend) Release() {}

func TestEngineArenaImprove(t *testing.T) {
	e := NewEngine()
	e.Reset(2)
	e.EmitBase(0, 100)
	e.EmitBase(1, 50)
	S := bitset.New(0, 1)
	l, _ := e.Lookup(bitset.New(0))
	r, _ := e.Lookup(bitset.New(1))

	e.Improve(S, l, r, algebra.Join, algebra.PhysNone, 500, 500, []int{0})
	nodes := len(e.nodes)
	// A worse candidate must be pruned...
	e.Improve(S, l, r, algebra.Join, algebra.PhysNone, 500, 700, []int{1})
	if c, _ := e.BestCost(S); c != 500 {
		t.Fatalf("worse candidate overwrote: cost %g", c)
	}
	// ...and a better one must overwrite in place, not append.
	e.Improve(S, r, l, algebra.Join, algebra.PhysNone, 500, 300, []int{2})
	if len(e.nodes) != nodes {
		t.Fatalf("improvement appended a new arena node: %d -> %d", nodes, len(e.nodes))
	}
	if c, _ := e.BestCost(S); c != 300 {
		t.Fatalf("improvement lost: cost %g", c)
	}
	p := e.Plan(S)
	if p == nil || p.Cost != 300 || len(p.Edges) != 1 || p.Edges[0] != 2 {
		t.Fatalf("materialized plan wrong: %+v", p)
	}
	if p.Left.Rel != 1 || p.Right.Rel != 0 {
		t.Fatalf("improved orientation lost: %s", p.Compact())
	}
	if e.Entries() != 3 {
		t.Fatalf("Entries = %d want 3", e.Entries())
	}
}

// tieSplits are the six (left, right) candidates for the set {0,1,2,3}
// that the tie-break tests feed in every arrival order. Index 1 is the
// lexicographically lowest split.
var tieSplits = [][2]bitset.Set{
	{bitset.New(2, 3), bitset.New(0, 1)}, {bitset.New(0, 1), bitset.New(2, 3)},
	{bitset.New(0, 2), bitset.New(1, 3)}, {bitset.New(1, 3), bitset.New(0, 2)},
	{bitset.New(0, 3), bitset.New(1, 2)}, {bitset.New(1, 2), bitset.New(0, 3)},
}

// tieEngine returns an engine holding the four singletons and every
// two-relation side of tieSplits, so candidates for {0,1,2,3} can be
// stored.
func tieEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.Reset(4)
	for i := 0; i < 4; i++ {
		e.EmitBase(i, 10)
	}
	for _, sp := range tieSplits {
		for _, S := range sp {
			l, r := tieHandle(t, e, bitset.New(S.Min())), tieHandle(t, e, S.Minus(bitset.New(S.Min())))
			e.Improve(S, l, r, algebra.Join, algebra.PhysNone, 100, 100, nil)
		}
	}
	return e
}

func tieHandle(t *testing.T, e *Engine, S bitset.Set) int32 {
	t.Helper()
	h, ok := e.Lookup(S)
	if !ok {
		t.Fatalf("no entry for %v", S)
	}
	return h
}

// tieWinner returns the (left, right) split stored for {0,1,2,3}.
func tieWinner(t *testing.T, e *Engine) [2]bitset.Set {
	t.Helper()
	n := e.nodes[tieHandle(t, e, bitset.Full(4))]
	return [2]bitset.Set{e.nodes[n.left].rels, e.nodes[n.right].rels}
}

// improveWinner feeds the candidates of tieSplits to Improve in the
// given order, candidate i at cost(i), and returns the winning split.
func improveWinner(t *testing.T, order []int, cost func(i int) float64) [2]bitset.Set {
	t.Helper()
	e := tieEngine(t)
	for _, i := range order {
		e.Improve(bitset.Full(4), tieHandle(t, e, tieSplits[i][0]), tieHandle(t, e, tieSplits[i][1]),
			algebra.Join, algebra.PhysNone, 1, cost(i), nil)
	}
	return tieWinner(t, e)
}

// tieOrders returns every permutation of the indices of tieSplits, by
// Heap's algorithm.
func tieOrders(t *testing.T) [][]int {
	t.Helper()
	var orders [][]int
	var permute func(a []int, k int)
	permute = func(a []int, k int) {
		if k == 1 {
			orders = append(orders, slices.Clone(a))
			return
		}
		for i := 0; i < k; i++ {
			permute(a, k-1)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	permute([]int{0, 1, 2, 3, 4, 5}, len(tieSplits))
	if len(orders) != 720 {
		t.Fatalf("%d orders, want 720", len(orders))
	}
	return orders
}

// TestParallelMergeTieBreakOrderIndependent: equal-cost candidates for
// one set must resolve to the lexicographically lowest (left, right)
// split whatever order they arrive in. The rule was first checked in
// the parallel mode's barrier merge; it now lives in Improve alone, and
// this test feeds Improve six candidates in all 720 arrival orders.
// Solvers emit pairs in different orders, so this is what keeps routing
// from changing the plan.
func TestParallelMergeTieBreakOrderIndependent(t *testing.T) {
	flat := func(int) float64 { return 100 } // all plans tie
	for _, order := range tieOrders(t) {
		if got, want := improveWinner(t, order, flat), tieSplits[1]; !sameSplit(got, want) {
			t.Fatalf("order %v: winner %v, want %v", order, got, want)
		}
	}
}

// TestParallelMergePrefersCheaper: cost still dominates the tie-break.
// A lexicographically larger split that is cheaper must win in every
// arrival order.
func TestParallelMergePrefersCheaper(t *testing.T) {
	cheaperHigh := func(i int) float64 {
		if i == 3 {
			return 50 // the larger split is cheaper
		}
		return 100
	}
	for _, order := range tieOrders(t) {
		if got, want := improveWinner(t, order, cheaperHigh), tieSplits[3]; !sameSplit(got, want) {
			t.Fatalf("order %v: winner %v, want %v", order, got, want)
		}
	}
}

// improveBackend admits every offered pair through ChargePair, prices it
// at cost(S1, S2) and stores it through ChargePlan and Improve, the path
// a solver's backend takes.
type improveBackend struct {
	e    *Engine
	cost func(S1, S2 bitset.Set) float64
}

func (b *improveBackend) BuildPair(S1, S2 bitset.Set) bool {
	lh, _ := b.e.Lookup(S1)
	rh, _ := b.e.Lookup(S2)
	if !b.e.ChargePair(S1, S2) {
		return false
	}
	if b.e.ChargePlan() {
		b.e.Improve(S1.Union(S2), lh, rh, algebra.Join, algebra.PhysNone, 1, b.cost(S1, S2), nil)
	}
	return true
}

func (b *improveBackend) Release() {}

// TestSerialImproveTieBreakMatchesMerge: candidates emitted through
// EmitPair and a pricing backend, as solvers emit them, resolve ties to
// the same lowest split as direct Improve calls (the rule the parallel
// barrier merge used to apply), in every arrival order.
func TestSerialImproveTieBreakMatchesMerge(t *testing.T) {
	for _, order := range tieOrders(t) {
		e := tieEngine(t)
		e.SetBackend(&improveBackend{e: e, cost: func(_, _ bitset.Set) float64 { return 100 }})
		for _, i := range order {
			e.EmitPair(tieSplits[i][0], tieSplits[i][1])
		}
		if e.Stats.CsgCmpPairs != len(order) || e.Stats.CostedPlans != len(order) {
			t.Fatalf("order %v: %d pairs, %d plans costed, want %d each",
				order, e.Stats.CsgCmpPairs, e.Stats.CostedPlans, len(order))
		}
		if got, want := tieWinner(t, e), tieSplits[1]; !sameSplit(got, want) {
			t.Fatalf("order %v: winner %v, want %v", order, got, want)
		}
	}
}

func sameSplit(a, b [2]bitset.Set) bool { return a[0].Equal(b[0]) && a[1].Equal(b[1]) }

// TestEnginePairBudget: ChargePair admits exactly the budgeted number of
// pairs, and EmitPair reports false for the pair that trips the budget
// and for every pair after it.
func TestEnginePairBudget(t *testing.T) {
	e := NewEngine()
	e.Reset(2)
	b := &recordBackend{e: e}
	e.SetBackend(b)
	e.SetLimits(Limits{MaxCsgCmpPairs: 2})
	for i := 0; i < 5; i++ {
		if got, want := e.EmitPair(bitset.New(0), bitset.New(1)), i < 2; got != want {
			t.Fatalf("EmitPair %d = %v, want %v", i, got, want)
		}
	}
	if len(b.pairs) != 2 {
		t.Fatalf("backend admitted %d pairs, want 2", len(b.pairs))
	}
	if e.Stats.CsgCmpPairs != 2 {
		t.Fatalf("CsgCmpPairs = %d want 2", e.Stats.CsgCmpPairs)
	}
	if !errors.Is(e.Aborted(), ErrBudgetExhausted) {
		t.Fatalf("Aborted = %v, want ErrBudgetExhausted", e.Aborted())
	}
	if _, err := e.Final(bitset.New(0, 1)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Final after trip = %v", err)
	}
}

func TestEngineCostedPlanBudget(t *testing.T) {
	e := NewEngine()
	e.Reset(2)
	e.SetLimits(Limits{MaxCostedPlans: 3})
	for i := 0; i < 3; i++ {
		if !e.ChargePlan() {
			t.Fatalf("charge %d rejected below the limit", i)
		}
	}
	if e.ChargePlan() {
		t.Fatal("charge above the limit admitted")
	}
	if !errors.Is(e.Aborted(), ErrBudgetExhausted) {
		t.Fatalf("Aborted = %v", e.Aborted())
	}
}

func TestEngineStepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine()
	e.Reset(2)
	e.SetLimits(Limits{Ctx: ctx})
	cancel()
	alive := 0
	for i := 0; i < 4*pollInterval; i++ {
		if !e.Step() {
			break
		}
		alive++
	}
	if alive >= 4*pollInterval {
		t.Fatal("cancellation never observed")
	}
	if !errors.Is(e.Aborted(), context.Canceled) {
		t.Fatalf("Aborted = %v", e.Aborted())
	}
}

func TestPoolRecyclesStorage(t *testing.T) {
	pool := &Pool{}
	e := pool.Get()
	e.Reset(8)
	if e.Stats.ArenaReused {
		t.Fatal("fresh engine must not report ArenaReused")
	}
	e.EmitBase(0, 10)
	pool.Put(e)

	// sync.Pool may drop entries (it does so randomly under -race), so
	// retry a few times: at least one Get must come back warm.
	warm := false
	for i := 0; i < 32 && !warm; i++ {
		e2 := pool.Get()
		e2.Reset(8)
		warm = e2.Stats.ArenaReused
		if warm && e2.Entries() != 0 {
			t.Fatalf("recycled engine not cleared: %d entries", e2.Entries())
		}
		e2.EmitBase(0, 10)
		pool.Put(e2)
	}
	if !warm {
		t.Fatal("pool never recycled an engine in 32 round-trips")
	}

	// A nil pool must behave like no pool at all.
	var np *Pool
	e3 := np.Get()
	if e3 == nil {
		t.Fatal("nil pool Get returned nil engine")
	}
	np.Put(e3) // must not panic
}

// TestEngineResetClearsAcrossTableModes resets one engine for runs of
// 16, 20 and 8 relations in turn, and in the reverse order, twice over,
// so it switches between the direct-indexed table (16, 8) and the
// open-addressing one (20) in every direction. After each reset no key
// of any earlier run may be found and Entries must be 0: a direct run
// clears only its own 2^n prefix, so this is the check that a slot an
// earlier run wrote is never read. Stats.ArenaReused must report
// whether the run's storage was kept: the first pass grows each table
// the first time a run needs it, and the second pass keeps everything.
func TestEngineResetClearsAcrossTableModes(t *testing.T) {
	for _, tc := range []struct {
		sizes  []int
		reused [2][]bool // per pass
	}{
		{[]int{16, 20, 8}, [2][]bool{{false, false, true}, {true, true, true}}},
		{[]int{8, 20, 16}, [2][]bool{{false, false, false}, {true, true, true}}},
	} {
		e := NewEngine()
		r := lcg(29)
		var earlier []bitset.Set
		for pass := 0; pass < 2; pass++ {
			for i, n := range tc.sizes {
				e.Reset(n)
				if e.Entries() != 0 {
					t.Fatalf("%v pass %d: %d entries after Reset(%d)", tc.sizes, pass, e.Entries(), n)
				}
				if got, want := e.Stats.ArenaReused, tc.reused[pass][i]; got != want {
					t.Errorf("%v pass %d: Reset(%d) ArenaReused = %v, want %v", tc.sizes, pass, n, got, want)
				}
				for _, k := range earlier {
					if e.Contains(k) {
						t.Fatalf("%v pass %d: key %v of an earlier run found after Reset(%d)", tc.sizes, pass, k, n)
					}
				}
				var own []bitset.Set
				for rel := 0; rel < n; rel++ {
					e.EmitBase(rel, 10)
					own = append(own, bitset.Single(rel))
				}
				for j := 0; j < 300; j++ {
					S := fromBits(r.next() & (1<<uint(n) - 1))
					if S.Len() < 2 {
						continue
					}
					e.Improve(S, 0, 1, algebra.Join, algebra.PhysNone, 1, float64(j), nil)
					own = append(own, S)
				}
				for _, k := range own {
					if !e.Contains(k) {
						t.Fatalf("%v pass %d: key %v lost in its own %d-relation run", tc.sizes, pass, k, n)
					}
				}
				earlier = append(earlier, own...)
				e.warm = true // as Pool.Put marks a recycled engine
			}
		}
	}
}

func TestEngineFinalNoPlan(t *testing.T) {
	e := NewEngine()
	e.Reset(2)
	e.EmitBase(0, 10)
	e.EmitBase(1, 10)
	if _, err := e.Final(bitset.New(0, 1)); err == nil {
		t.Fatal("Final without a full plan must fail")
	}
	if e.Stats.TableEntries != 2 || e.Stats.ArenaNodes != 2 {
		t.Fatalf("occupancy stats wrong: %+v", e.Stats)
	}
	if e.Stats.MemoCapacity == 0 {
		t.Fatal("MemoCapacity not recorded")
	}
}
