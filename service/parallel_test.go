package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// cliqueDoc is an n-relation clique whose first relation has card
// first.
func cliqueDoc(n int, first float64) *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	for i := 0; i < n; i++ {
		card := float64(100 * (i + 1))
		if i == 0 {
			card = first
		}
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: fmt.Sprintf("r%d", i), Card: card})
		for j := 0; j < i; j++ {
			doc.Edges = append(doc.Edges, repro.EdgeJSON{Left: []int{j}, Right: []int{i}, Sel: 0.1})
		}
	}
	return doc
}

// TestParallelPlannerThroughWorkerPool is the parallel-inside-parallel
// scenario: the server's worker pool admits several requests at once,
// and each admitted enumeration fans out onto its own memo worker
// views. Distinct fingerprints defeat coalescing and the cache is off,
// so every request is a real parallel enumeration. Run under -race in
// CI.
func TestParallelPlannerThroughWorkerPool(t *testing.T) {
	planner := repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithPlanCacheSize(0),
		repro.WithParallelism(2),
	)
	s := New(Config{Planner: planner, Workers: 4, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const (
		clients  = 8
		requests = 4
		rels     = 10 // a clique at the parallel crossover routes to parallel DPsub
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				// Unique first cardinality per (client, request): every
				// request has its own fingerprint and must enumerate.
				doc := cliqueDoc(rels, float64(10_000+100*c+r))
				code, body, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{
					Query: doc, Algorithm: "auto",
				})
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, code, body)
					return
				}
				var resp PlanResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Stats.Workers != 2 {
					t.Errorf("client %d: workers = %d, want 2", c, resp.Stats.Workers)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	pm := planner.Metrics()
	if pm.AutoRouted["dpsub"] != clients*requests {
		t.Errorf("AutoRouted = %v, want every request routed to dpsub", pm.AutoRouted)
	}
	if want := uint64(clients * requests); pm.ParallelRuns != want {
		t.Errorf("ParallelRuns = %d, want %d", pm.ParallelRuns, want)
	}

	// The new counters are scraped at /metrics.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{"planner_parallel_runs_total", "planner_parallel_pairs_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
