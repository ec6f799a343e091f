package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestConcurrentPlansThroughWorkerPool: the server's worker pool admits
// several requests at once, and each admitted request enumerates on its
// own pooled engine of one shared planner. Distinct fingerprints defeat
// coalescing and the cache is off, so every request is a real
// enumeration, and each must return the cost a direct call plans for
// the same document. Run under -race in CI.
func TestConcurrentPlansThroughWorkerPool(t *testing.T) {
	planner := repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithPlanCacheSize(0),
	)
	s := New(Config{Planner: planner, Workers: 4, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const (
		clients  = 8
		requests = 4
		rels     = 10
	)
	// Unique first cardinality per (client, request): every request has
	// its own fingerprint and must enumerate.
	doc := func(c, r int) *repro.QueryJSON { return cliqueDoc(rels, float64(10_000+100*c+r)) }
	ref := repro.NewPlanner(repro.WithAlgorithm(repro.SolverAuto), repro.WithPlanCacheSize(0))
	want := make([][]float64, clients)
	for c := range want {
		for r := 0; r < requests; r++ {
			res, err := ref.PlanJSON(context.Background(), doc(c, r))
			if err != nil {
				t.Fatal(err)
			}
			want[c] = append(want[c], res.Cost())
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				code, body, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{
					Query: doc(c, r), Algorithm: "auto",
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
				if resp.Cost != want[c][r] {
					t.Errorf("client %d request %d: cost %g, direct call plans %g", c, r, resp.Cost, want[c][r])
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
	if pm.Plans != clients*requests || pm.AutoRouted["dphyp"] != clients*requests {
		t.Errorf("Plans = %d, AutoRouted = %v; want %d plans, every one routed to dphyp",
			pm.Plans, pm.AutoRouted, clients*requests)
	}
}
