package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func marshalPool(t *testing.T, pool []item) [][]byte {
	t.Helper()
	out := make([][]byte, len(pool))
	for i, it := range pool {
		b, err := json.Marshal(it.doc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func fingerprints(t *testing.T, pool []item) map[string]bool {
	t.Helper()
	fps := map[string]bool{}
	for _, it := range pool {
		g, err := docGraph(it.doc)
		if err != nil {
			t.Fatalf("%v: %v", it.cell, err)
		}
		fps[g.Fingerprint()] = true
	}
	return fps
}

// The same seed must give byte-identical documents and request bodies;
// different seeds must share no document.
func TestSeedDeterminesInputs(t *testing.T) {
	grids := []struct {
		name  string
		cells []cell
		large bool
	}{{"lib-hot", hotCells, false}, {"lib-cold", coldCells, false}, {"lib-large", largeCells, true}, {"http-hot", httpCells, false}}
	for _, g := range grids {
		a, err := makePool(7, g.name, g.cells, 2*len(g.cells), g.large, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makePool(7, g.name, g.cells, 2*len(g.cells), g.large, true)
		c, _ := makePool(8, g.name, g.cells, 2*len(g.cells), g.large, true)
		if !slices.EqualFunc(marshalPool(t, a), marshalPool(t, b), bytes.Equal) {
			t.Errorf("%s: seed 7 generated different documents twice", g.name)
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request body %d differs under one seed", g.name, i)
			}
		}
		fa, fc := fingerprints(t, a), fingerprints(t, c)
		if len(fa) != len(a) {
			t.Errorf("%s: %d documents but %d distinct fingerprints", g.name, len(a), len(fa))
		}
		for fp := range fa {
			if fc[fp] {
				t.Fatalf("%s: seeds 7 and 8 share a document", g.name)
			}
		}
	}

	hot, _ := makePool(7, "http-hot", httpCells, hotDocs, false, true)
	cold, _ := makePool(7, "http-cold", httpCells, 200, false, true)
	s1, s2 := newReqSeq(7, hot, cold), newReqSeq(7, hot, cold)
	for i := range 1000 {
		if !bytes.Equal(s1.next().body, s2.next().body) {
			t.Fatalf("request %d differs under one seed", i)
		}
	}
}

// Every cell of every grid generates, with the relation count its
// parameters promise, and the verified prefix of each pool covers every
// cell.
func TestGrids(t *testing.T) {
	for name, cells := range map[string][]cell{"hot": hotCells, "cold": coldCells, "large": largeCells, "http": httpCells} {
		if len(cells) > verifyCount {
			t.Errorf("%s: %d cells, more than the %d documents the gate checks", name, len(cells), verifyCount)
		}
		for _, c := range cells {
			want := c.n
			switch c.family {
			case "grid":
				want = c.n * c.m
			case "star-hyper":
				want = c.n + 1
			}
			if doc := makeDoc(c, configFor(c, name == "large")); len(doc.Relations) != want {
				t.Errorf("%v: %d relations, want %d", c, len(doc.Relations), want)
			}
		}
	}
	if n := len(hotCells); n != 64 {
		t.Errorf("lib-hot grid has %d cells, want 64", n)
	}
	trees := 0
	for _, c := range httpCells {
		if c.family == "star-antijoin" || c.family == "cycle-outer" {
			trees++
		}
	}
	if share := float64(trees) / float64(len(httpCells)); share != 0.05 {
		t.Errorf("http-mixed tree share %.3f, want 0.05", share)
	}
}

// The gate accepts the planner's plans against the true reference and
// rejects them against a reference perturbed by 1e-6.
func TestGateRejectsPerturbedReference(t *testing.T) {
	pool, err := makePool(3, "gate", hotCells[:16], 16, false, false)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanner()
	plan := func(it item) (planOut, error) {
		r, err := planDoc(context.Background(), p, it.doc)
		if err != nil {
			return planOut{}, err
		}
		return libPlanOut(r), nil
	}
	if ratios, fails := newGate(nil, pool, exactRef).run(plan); len(fails) > 0 || geomean(ratios) != 1 {
		t.Fatalf("true reference: ratio %v, failures %v", geomean(ratios), fails)
	}
	perturbed := func(it item) (float64, error) {
		ref, err := exactRef(it)
		return ref * (1 + 1e-6), err
	}
	if _, fails := newGate(nil, pool, perturbed).run(plan); len(fails) != len(pool) {
		t.Fatalf("perturbed reference: %d of %d documents failed, want all", len(fails), len(pool))
	}

	out, err := plan(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	out.leaves = out.leaves[1:]
	if check(out, len(pool[0].doc.Relations), out.cost) == nil {
		t.Error("a plan missing a relation passed the gate")
	}
}

// A short traced run of every workload: the workload invariants hold,
// every metric BENCHMARK.json names is printed with its unit, and the
// -json records and the result line parse.
func TestWorkloads(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	rc := runConfig{seed: 11, seconds: 0.2, traced: true}
	defer func(n int) { verifyCount = n }(verifyCount)
	verifyCount = 16
	var results []*result
	for _, name := range workloads {
		var res *result
		if spec, ok := libSpecs[name]; ok {
			// Smaller pools keep the test short; a 0.2 s window plans
			// far fewer documents than either pool holds.
			spec.count = min(spec.count, 1024)
			res, err = runLib(name, spec, rc)
		} else {
			res, err = runHTTP(rc)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.fails) > 0 {
			t.Errorf("%s: verification failed: %v", name, res.fails)
		}
		results = append(results, res)
	}

	layer := func(res *result, name string) float64 {
		for _, m := range res.perLayer {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("%s: no metric %s", res.workload, name)
		return 0
	}
	hot, cold, large := results[0], results[1], results[2]
	if v := layer(hot, "repro.cache_hit_ratio"); v != 1 {
		t.Errorf("lib-hot cache hit ratio %v, want 1", v)
	}
	if hot.delta.PairsEmitted != 0 {
		t.Errorf("lib-hot emitted %d csg-cmp pairs, want 0", hot.delta.PairsEmitted)
	}
	if v := layer(cold, "repro.cache_hit_ratio"); v != 0 {
		t.Errorf("lib-cold cache hit ratio %v, want 0", v)
	}
	for alg := range exactAlgs {
		if v := layer(large, "repro.routed."+alg); v != 0 {
			t.Errorf("lib-large routed %v of its calls to %s", v, alg)
		}
	}

	var out bytes.Buffer
	for _, res := range results {
		out.Reset()
		res.print(&out, rc)
		for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
			if !strings.Contains(out.String(), " "+m.Name+" ") || !strings.Contains(out.String(), " "+m.Unit) {
				t.Errorf("%s: metric %s (%s) not printed", res.workload, m.Name, m.Unit)
			}
		}
		for _, ms := range [][]metric{res.endToEnd, res.perLayer} {
			for _, m := range ms {
				if !slices.ContainsFunc(append(bench.EndToEnd, bench.PerLayer...), func(d struct{ Name, Unit string }) bool {
					return d.Name == m.Name && d.Unit == m.Unit
				}) {
					t.Errorf("%s: printed %s (%s), which BENCHMARK.json does not name", res.workload, m.Name, m.Unit)
				}
			}
		}
	}

	path := filepath.Join(t.TempDir(), "out.json")
	if err := appendRecords(path, results, rc); err != nil {
		t.Fatal(err)
	}
	runs, err := loadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads {
		if len(runs[name]["plans_per_s"]) != 1 {
			t.Errorf("-json record of %s lacks plans_per_s", name)
		}
	}

	out.Reset()
	summary(&out, results[:1], true)
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || len(line.Metrics) != len(bench.PerLayer) {
		t.Errorf("result line %s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25}, {[]float64{2, 1}, 0.75, 1.5, 2.25}} {
		if q1, m, q3 := quartiles(tc.in); q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := slices.Clone(base)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, tc := range []struct {
		head   []float64
		higher bool
		want   string
	}{
		{shift(-10), false, "improved"},  // lower latency, every pair
		{shift(-10), true, "regressed"},  // lower throughput beyond the bound
		{shift(0.5), false, "unchanged"}, // within the bound
		{shift(-1.5), false, "unchanged"},
		{shift(-10)[:5], false, "unchanged"}, // too few pairs to claim a gain
	} {
		if got, _, _ := verdict(base, tc.head, tc.higher, 0.05); got != tc.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", tc.head, tc.higher, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 100, 60, 140, 100, 70, 130, 100, 100}
	if got, _, _ := verdict(noisy, noisy, false, 0.05); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
	worse := slices.Clone(noisy)
	for i := range worse {
		worse[i] *= 1.5
	}
	if got, _, _ := verdict(noisy, worse, false, 0.05); got != "regressed" {
		t.Errorf("median 50%% worse under a wide spread: %s, want regressed", got)
	}
}
