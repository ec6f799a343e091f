package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// starDoc builds a star query document: relation 0 is the hub, joined
// to n-1 satellites. centerCard varies the fingerprint between tests.
func starDoc(n int, centerCard float64) *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	doc.Relations = append(doc.Relations, repro.RelationJSON{Name: "hub", Card: centerCard})
	for i := 1; i < n; i++ {
		doc.Relations = append(doc.Relations, repro.RelationJSON{
			Name: fmt.Sprintf("sat%d", i), Card: float64(100 * i),
		})
		doc.Edges = append(doc.Edges, repro.EdgeJSON{
			Left: []int{0}, Right: []int{i}, Sel: 0.01,
		})
	}
	return doc
}

// hyperDoc is a valid three-relation document with the complex edge
// ({0,1},{2}), which DPccp does not accept.
func hyperDoc() *repro.QueryJSON {
	return &repro.QueryJSON{
		Relations: []repro.RelationJSON{{Name: "a", Card: 10}, {Name: "b", Card: 20}, {Name: "c", Card: 30}},
		Edges: []repro.EdgeJSON{
			{Left: []int{0}, Right: []int{1}, Sel: 0.1},
			{Left: []int{0, 1}, Right: []int{2}, Sel: 0.1},
		},
	}
}

// overflowDoc is a valid, finite document whose estimates overflow
// float64: 100 relations of 1e30 rows chained with selectivity 1.
func overflowDoc() *repro.QueryJSON {
	doc := &repro.QueryJSON{}
	for i := 0; i < 100; i++ {
		doc.Relations = append(doc.Relations, repro.RelationJSON{Name: fmt.Sprintf("r%d", i), Card: 1e30})
		if i > 0 {
			doc.Edges = append(doc.Edges, repro.EdgeJSON{Left: []int{i - 1}, Right: []int{i}, Sel: 1})
		}
	}
	return doc
}

// fakePlanner is a gated Planner backend: every call signals began,
// then blocks until release is closed (or the call's context expires).
// With release nil, calls return immediately. It makes concurrency
// scenarios — coalescing, queue saturation, draining — deterministic.
type fakePlanner struct {
	res     *repro.Result
	calls   atomic.Int64
	began   chan struct{}
	release chan struct{}
}

func (f *fakePlanner) run(ctx context.Context) (*repro.Result, error) {
	f.calls.Add(1)
	if f.began != nil {
		f.began <- struct{}{}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return f.res, nil
}

func (f *fakePlanner) Plan(ctx context.Context, q *repro.Query, opts ...repro.Option) (*repro.Result, error) {
	return f.run(ctx)
}

func (f *fakePlanner) PlanJSON(ctx context.Context, doc *repro.QueryJSON, opts ...repro.Option) (*repro.Result, error) {
	return f.run(ctx)
}

func (f *fakePlanner) Metrics() repro.PlannerMetrics { return repro.PlannerMetrics{} }

// testResult plans a tiny real query once, to give fakes a structurally
// valid result to serve.
func testResult(t *testing.T) *repro.Result {
	t.Helper()
	q := repro.NewQuery()
	a := q.Relation("a", 10)
	b := q.Relation("b", 20)
	q.Join(a, b, 0.1)
	res, err := repro.NewPlanner().Plan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tryPostPlan marshals req and posts it to url+"/plan". Goroutine-safe
// (no t.Fatal); errors surface to the caller.
func tryPostPlan(client *http.Client, url string, req PlanRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Post(url+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// postPlan is tryPostPlan for the test's own goroutine.
func postPlan(t *testing.T, client *http.Client, url string, req PlanRequest) (int, []byte) {
	t.Helper()
	code, out, err := tryPostPlan(client, url, req)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// TestPlanRoundTrip: a star query plans over HTTP, reports its routing
// decision, matches the library's own answer, and hits the plan cache
// on the second call.
func TestPlanRoundTrip(t *testing.T) {
	planner := repro.NewPlanner()
	s := New(Config{Planner: planner})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	doc := starDoc(6, 1e6)
	code, body := postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: doc, Algorithm: "auto"})
	if code != http.StatusOK {
		t.Fatalf("POST /plan: %d: %s", code, body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.Plan == nil || resp.Cost <= 0 {
		t.Fatalf("degenerate response: %+v", resp)
	}
	if resp.Stats.Shape != "star" || resp.Stats.RoutedAlgorithm != "dpccp" {
		t.Errorf("routing: shape=%q routed=%q, want star/dpccp", resp.Stats.Shape, resp.Stats.RoutedAlgorithm)
	}

	// The served cost matches planning the same document directly.
	want, err := repro.NewPlanner().PlanJSON(context.Background(), doc, repro.WithAlgorithm(repro.SolverAuto))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cost != want.Cost() {
		t.Errorf("served cost %g != direct cost %g", resp.Cost, want.Cost())
	}

	// Leaf names survive the wire.
	leaf := resp.Plan
	for leaf.Left != nil {
		leaf = leaf.Left
	}
	if leaf.Relation == "" {
		t.Error("leaf lost its relation name")
	}

	// Second identical request: plan cache hit.
	code, body = postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: doc, Algorithm: "auto"})
	if code != http.StatusOK {
		t.Fatalf("second POST /plan: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Stats.CacheHit {
		t.Error("second identical request missed the plan cache")
	}
}

// TestPlanTreeDocument: tree documents (non-inner joins) plan through
// the conflict-analysis path and coalesce on a document hash.
func TestPlanTreeDocument(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	rel := func(i int) *int { return &i }
	doc := &repro.QueryJSON{
		Relations: []repro.RelationJSON{
			{Name: "fact", Card: 1e6}, {Name: "dim1", Card: 1000}, {Name: "dim2", Card: 500},
		},
		Tree: &repro.TreeJSON{
			Op: "antijoin",
			Left: &repro.TreeJSON{
				Op:   "join",
				Left: &repro.TreeJSON{Rel: rel(0)}, Right: &repro.TreeJSON{Rel: rel(1)},
				Pred: []int{0, 1}, Sel: 0.001,
			},
			Right: &repro.TreeJSON{Rel: rel(2)},
			Pred:  []int{0, 2}, Sel: 0.002,
		},
	}
	code, body := postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: doc})
	if code != http.StatusOK {
		t.Fatalf("POST /plan (tree): %d: %s", code, body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	var walk func(*PlanNodeJSON)
	walk = func(n *PlanNodeJSON) {
		if n == nil {
			return
		}
		if n.Op == "antijoin" {
			found = true
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(resp.Plan)
	if !found {
		t.Error("antijoin vanished from the served plan")
	}
}

// TestBadRequests: malformed input is rejected with 400 before any
// worker is committed.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	post := func(body string) int {
		resp, err := client.Post(srv.URL+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", code)
	}
	if code := post(`{}`); code != http.StatusBadRequest {
		t.Errorf("no query: %d, want 400", code)
	}
	if code := post(`{"query":{"relations":[]}}`); code != http.StatusBadRequest {
		t.Errorf("no relations: %d, want 400", code)
	}
	if code := post(`{"query":{"relations":[{"name":"a","card":1}],"edges":[{"left":[0],"right":[0],"sel":1}],"tree":{"rel":0}}`); code != http.StatusBadRequest {
		t.Errorf("edges+tree: %d, want 400", code)
	}

	doc := starDoc(3, 100)
	body, _ := json.Marshal(PlanRequest{Query: doc, Algorithm: "quantum"})
	if code := post(string(body)); code != http.StatusBadRequest {
		t.Errorf("unknown algorithm: %d, want 400", code)
	}

	// A plan with an infinite cost cannot be encoded; it must be refused
	// with a JSON error, not sent as a 200 with an empty body. The long
	// timeout covers exact DPhyp over 100 relations under -race.
	for _, alg := range []string{"", "auto"} {
		code, out := postPlan(t, client, srv.URL, PlanRequest{Query: overflowDoc(), Algorithm: alg, TimeoutMS: 60_000})
		var e ErrorResponse
		if code != http.StatusUnprocessableEntity || json.Unmarshal(out, &e) != nil || e.Error == "" {
			t.Errorf("overflowing plan (algorithm %q): %d %q, want 422 with a JSON error", alg, code, out)
		}
	}

	// DPccp plans simple graphs only: a complex edge is the client's
	// mistake, refused with a JSON error rather than a server panic.
	code, out := postPlan(t, client, srv.URL, PlanRequest{Query: hyperDoc(), Algorithm: "dpccp"})
	var e ErrorResponse
	if code != http.StatusUnprocessableEntity || json.Unmarshal(out, &e) != nil || !strings.Contains(e.Error, "hyperedge") {
		t.Errorf("dpccp with a complex edge: %d %q, want 422 with the hyperedge error", code, out)
	}

	resp, err := client.Get(srv.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan: %d, want 405", resp.StatusCode)
	}
}

// TestBodyLimit: /plan and /batch refuse a body one byte over
// Config.MaxBodyBytes with 413 and a JSON error, and plan a body of
// exactly that many bytes.
func TestBodyLimit(t *testing.T) {
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/plan", PlanRequest{Query: starDoc(3, 100)}},
		{"/batch", BatchRequest{Queries: []*repro.QueryJSON{starDoc(3, 100)}}},
	} {
		t.Run(strings.TrimPrefix(c.path, "/"), func(t *testing.T) {
			body, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{MaxBodyBytes: int64(len(body))})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			post := func(b []byte) (int, []byte) {
				resp, err := srv.Client().Post(srv.URL+c.path, "application/json", bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				out, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, out
			}
			// Trailing whitespace keeps the longer body valid JSON, so
			// only its size can refuse it.
			code, out := post(append(body, ' '))
			var e ErrorResponse
			if code != http.StatusRequestEntityTooLarge || json.Unmarshal(out, &e) != nil || e.Error == "" {
				t.Errorf("body of %d bytes: %d %q, want 413 with a JSON error", len(body)+1, code, out)
			}
			if code, out := post(body); code != http.StatusOK {
				t.Errorf("body of exactly %d bytes: %d %q, want 200", len(body), code, out)
			}
		})
	}
}

// TestCoalescing64Gated: 64 concurrent identical requests, with the
// backend gated so all of them are provably in flight at once, call the
// planner exactly once; 63 responses are marked coalesced.
func TestCoalescing64Gated(t *testing.T) {
	fake := &fakePlanner{
		res:     testResult(t),
		began:   make(chan struct{}, 128),
		release: make(chan struct{}),
	}
	s := New(Config{Planner: fake, Workers: 4, QueueDepth: 128})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 64
	doc := starDoc(8, 1e6)
	codes := make(chan int, n)
	coalesced := make(chan bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: doc})
			if err != nil {
				t.Errorf("post: %v", err)
			}
			var resp PlanResponse
			if code == http.StatusOK {
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("decode: %v", err)
				}
			}
			codes <- code
			coalesced <- resp.Coalesced
		}()
	}

	<-fake.began // the leader reached the backend
	waitFor(t, func() bool { return s.co.waiting.Load() == n-1 }, "63 followers parked on the leader")
	close(fake.release)
	wg.Wait()
	close(codes)
	close(coalesced)

	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("request finished %d, want 200", code)
		}
	}
	var sharedN int
	for c := range coalesced {
		if c {
			sharedN++
		}
	}
	if got := fake.calls.Load(); got != 1 {
		t.Errorf("backend planned %d times for %d identical requests, want exactly 1", got, n)
	}
	if sharedN != n-1 {
		t.Errorf("%d responses marked coalesced, want %d", sharedN, n-1)
	}
}

// TestCoalescing64RealPlanner: the same herd against the real planner —
// however the 64 requests interleave, the library enumerates the query
// exactly once (coalesced while in flight, plan-cache hits after).
func TestCoalescing64RealPlanner(t *testing.T) {
	planner := repro.NewPlanner()
	s := New(Config{Planner: planner, Workers: 4, QueueDepth: 128})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 64
	doc := starDoc(10, 5e5)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, body, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: doc})
			if err != nil || code != http.StatusOK {
				t.Errorf("request: %d (%v): %s", code, err, body)
			}
		}()
	}
	close(start)
	wg.Wait()

	m := planner.Metrics()
	if m.CacheMisses != 1 {
		t.Errorf("planner enumerated %d times for %d identical requests, want exactly 1", m.CacheMisses, n)
	}
	if total := int(m.Plans) + int(s.co.coalesced.Load()); total != n {
		t.Errorf("plans(%d) + coalesced(%d) = %d, want %d", m.Plans, s.co.coalesced.Load(), total, n)
	}
}

// panicThenOKPlanner panics on its first call (after parking at the
// gate) and serves normally afterwards.
type panicThenOKPlanner struct {
	res     *repro.Result
	calls   atomic.Int64
	began   chan struct{}
	release chan struct{}
}

func (p *panicThenOKPlanner) Plan(ctx context.Context, q *repro.Query, opts ...repro.Option) (*repro.Result, error) {
	if p.calls.Add(1) == 1 {
		p.began <- struct{}{}
		<-p.release
		panic("backend exploded")
	}
	return p.res, nil
}

func (p *panicThenOKPlanner) PlanJSON(ctx context.Context, doc *repro.QueryJSON, opts ...repro.Option) (*repro.Result, error) {
	return p.Plan(ctx, nil, opts...)
}

func (p *panicThenOKPlanner) Metrics() repro.PlannerMetrics { return repro.PlannerMetrics{} }

// TestCoalescedLeaderPanicRecovery: a panicking leader costs only its
// own request (500); coalesced followers re-elect a leader and succeed
// instead of inheriting the crash or hanging.
func TestCoalescedLeaderPanicRecovery(t *testing.T) {
	fake := &panicThenOKPlanner{
		res:     testResult(t),
		began:   make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	s := New(Config{Planner: fake, Workers: 2, QueueDepth: 16})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 4
	doc := starDoc(6, 777)
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: doc})
			if err != nil {
				t.Errorf("post: %v", err)
			}
			codes <- code
		}()
	}
	<-fake.began
	waitFor(t, func() bool { return s.co.waiting.Load() == n-1 }, "followers parked on doomed leader")
	close(fake.release)
	wg.Wait()
	close(codes)

	got := map[int]int{}
	for code := range codes {
		got[code]++
	}
	if got[http.StatusInternalServerError] != 1 || got[http.StatusOK] != n-1 {
		t.Errorf("status distribution %v, want exactly one 500 and %d 200s", got, n-1)
	}
	if s.met.panics.Load() != 1 {
		t.Errorf("recorded panics = %d, want 1", s.met.panics.Load())
	}
}

// TestQueueSaturation: with one worker held and the queue full,
// additional distinct requests are shed with 429 + Retry-After instead
// of piling up; once the worker frees, the queued requests complete.
func TestQueueSaturation(t *testing.T) {
	fake := &fakePlanner{
		res:     testResult(t),
		began:   make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	s := New(Config{Planner: fake, Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Distinct cardinalities → distinct fingerprints → no coalescing.
	codes := make(chan int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		card := float64(1000 * (i + 1))
		go func() {
			defer wg.Done()
			code, _, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, card)})
			if err != nil {
				t.Errorf("post: %v", err)
			}
			codes <- code
		}()
	}
	<-fake.began // one request holds the only worker
	waitFor(t, func() bool { q, _ := s.pool.gauges(); return q == 2 }, "two requests queued")

	// The 4th distinct request overflows the queue.
	body, _ := json.Marshal(PlanRequest{Query: starDoc(5, 9999)})
	resp, err := srv.Client().Post(srv.URL+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}

	close(fake.release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request finished %d, want 200", code)
		}
	}
	if got := s.pool.rejections.Load(); got != 1 {
		t.Errorf("rejections = %d, want 1", got)
	}
}

// TestDeadlines: a request deadline that expires while queued or while
// planning reports 504.
func TestDeadlines(t *testing.T) {
	fake := &fakePlanner{
		res:     testResult(t),
		began:   make(chan struct{}, 16),
		release: make(chan struct{}), // never closed: planning hangs until ctx
	}
	s := New(Config{Planner: fake, Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Mid-plan: the backend observes the cancellation.
	code, body := postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, 1000), TimeoutMS: 40})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-plan deadline: %d: %s, want 504", code, body)
	}

	// While queued: a second request can't reach the worker the first
	// (still hanging until its own deadline...) — occupy the worker with
	// a long-deadline request first.
	go tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, 2000), TimeoutMS: 5000})
	<-fake.began
	code, body = postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, 3000), TimeoutMS: 40})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued deadline: %d: %s, want 504", code, body)
	}
}

// TestShutdownDrains: Shutdown refuses new work with 503 but lets the
// admitted request finish; it returns only after the last in-flight
// request completed.
func TestShutdownDrains(t *testing.T) {
	fake := &fakePlanner{
		res:     testResult(t),
		began:   make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	s := New(Config{Planner: fake, Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inflightCode := make(chan int, 1)
	go func() {
		code, _, err := tryPostPlan(srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, 1000), TimeoutMS: 10_000})
		if err != nil {
			t.Errorf("in-flight post: %v", err)
		}
		inflightCode <- code
	}()
	<-fake.began // the request is planning

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, s.Draining, "server draining")

	// New work is refused while draining.
	code, _ := postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: starDoc(5, 2000)})
	if code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: %d, want 503", code)
	}
	// /healthz flips so load balancers stop routing.
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Errorf("healthz during drain: %d %q, want 503 draining", resp.StatusCode, hz.Status)
	}

	// Shutdown is still waiting on the in-flight request.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(fake.release)
	if code := <-inflightCode; code != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestBatchEndpoint: per-query failures stay inside their Results slot.
func TestBatchEndpoint(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := BatchRequest{
		Queries: []*repro.QueryJSON{
			starDoc(4, 1000),
			{Relations: []repro.RelationJSON{{Name: "lonely", Card: 1}}}, // no edges: invalid
			starDoc(5, 2000),
			overflowDoc(), // valid, but its plan's cost is +Inf
		},
		TimeoutMS: 60_000, // exact DPhyp over 100 relations takes seconds under -race
	}
	body, _ := json.Marshal(req)
	resp, err := srv.Client().Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results, want 4", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].PlanResponse == nil || out.Results[0].Cost <= 0 {
		t.Errorf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Error("invalid query 1 did not report an error")
	}
	if out.Results[2].Error != "" || out.Results[2].PlanResponse == nil {
		t.Errorf("healthy query 2 dragged down: %+v", out.Results[2])
	}
	if out.Results[3].Error != errNonFinitePlan.Error() || out.Results[3].PlanResponse != nil {
		t.Errorf("overflowing query 3: %+v, want the item error %q", out.Results[3], errNonFinitePlan)
	}

	// A query DPccp does not accept fails alone, as an item error.
	body, _ = json.Marshal(BatchRequest{Queries: []*repro.QueryJSON{starDoc(4, 1000), hyperDoc()}, Algorithm: "dpccp"})
	resp2, err := srv.Client().Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch with algorithm dpccp: %d", resp2.StatusCode)
	}
	out = BatchResponse{}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Error != "" || !strings.Contains(out.Results[1].Error, "hyperedge") {
		t.Errorf("dpccp batch: %+v, want a plan then the hyperedge item error", out.Results)
	}
}

// TestMetricsEndpoint: the exposition carries server and planner series
// that reflect actual traffic.
func TestMetricsEndpoint(t *testing.T) {
	planner := repro.NewPlanner()
	s := New(Config{Planner: planner})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	doc := starDoc(5, 4e5)
	for i := 0; i < 3; i++ {
		if code, body := postPlan(t, srv.Client(), srv.URL, PlanRequest{Query: doc, Algorithm: "auto"}); code != 200 {
			t.Fatalf("warmup: %d: %s", code, body)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(text)
	for _, want := range []string{
		"planner_plans_total 3",
		"planner_cache_hits_total 2",
		"planner_cache_misses_total 1",
		// Routing happens before the cache lookup, so hits count too.
		`planner_auto_routed_total{algorithm="dpccp"} 3`,
		`dpserved_http_requests_total{path="/plan",code="200"} 3`,
		"dpserved_request_duration_seconds_count 3",
		"dpserved_workers",
		"dpserved_queue_capacity",
		"dpserved_coalesce_leaders_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthz: the liveness endpoint reports gauges and 200 while
// serving.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 3})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Workers != 3 {
		t.Errorf("healthz: %+v", hz)
	}
}
