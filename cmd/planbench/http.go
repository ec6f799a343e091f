package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/service"
)

// The http-mixed rate ladder (requests/s), calibrated once on the seed
// commit and frozen: the lowest step is ~25% of the seed's capacity on
// the 2-CPU reference box and each step is ×1.4 the one before. The
// ladder stops at the first step that fails.
var ladder = [maxSteps]float64{1700, 2380, 3332, 4665, 6531, 9143, 12800}

const (
	maxSteps = 7
	// refStep is the step whose latencies http-mixed reports.
	refStep = 1
	// senders is the number of connections draining the FIFO.
	senders = 2
	// coldShare of the requests are cold documents; the rest come from
	// the hot pool warmed during set-up. The split, the hot pool's size
	// and the 5% tree share of httpCells are assumptions, not
	// measurements: no request trace of a deployment exists. lib-hot
	// (every call a hit) and lib-cold (every call a miss) bracket any
	// real hit ratio.
	coldShare = 0.2
	hotDocs   = 256
	// coldDocs cycle in order. A cold document comes back only after
	// more cold inserts than the cache holds, so its entry is gone and
	// every cold request misses.
	coldDocs = cacheSize + 1024
	// Step pass rules.
	maxP99        = 20 * time.Millisecond
	minOK         = 0.999
	maxBacklog    = 0.01 // of the step's requests, in the FIFO at step end
	maxLagP99     = time.Millisecond
	drainDeadline = 2 * time.Second
)

// httpTimes splits a window: the closed loop, which gives the end-to-end
// metrics, takes three quarters of it, each ladder step a sixteenth, the
// first sixth of a step warm-up.
func httpTimes(window time.Duration) (warm, step, closed time.Duration) {
	return window / 96, window / 16, window * 3 / 4
}

// reqSeq is the deterministic request sequence: each request is a cold
// document (the next unused one) with probability coldShare, otherwise
// a uniformly drawn hot document.
type reqSeq struct {
	rng       *rand.Rand
	hot, cold []item
	nextCold  int
}

func newReqSeq(seed int64, hot, cold []item) *reqSeq {
	return &reqSeq{rng: rand.New(rand.NewPCG(uint64(seed), 0x68747470)), hot: hot, cold: cold}
}

func (s *reqSeq) next() item {
	if s.rng.Float64() < coldShare {
		it := s.cold[s.nextCold%len(s.cold)]
		s.nextCold++
		return it
	}
	return s.hot[s.rng.IntN(len(s.hot))]
}

type httpBench struct {
	srv    *service.Server
	ts     *httptest.Server
	p      *repro.Planner
	client *http.Client
}

func (h *httpBench) close() {
	h.ts.Close()
	_ = h.srv.Shutdown(context.Background()) // nothing in flight after Close
	h.client.CloseIdleConnections()
}

// newHTTPBench starts an in-process dpserved with its default
// configuration and warms it with the hot documents.
func newHTTPBench(hot []item) (*httpBench, error) {
	p := newPlanner()
	srv := service.New(service.Config{
		Planner:        p,
		Workers:        procs,
		QueueDepth:     64,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     60 * time.Second,
	})
	h := &httpBench{srv: srv, ts: httptest.NewServer(srv.Handler()), p: p, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: senders,
		MaxConnsPerHost:     senders,
		DisableCompression:  true,
	}}}
	for _, it := range hot {
		if _, err := h.post("/plan", it.body); err != nil {
			h.close()
			return nil, fmt.Errorf("set-up: %v: %w", it.cell, err)
		}
	}
	return h, nil
}

// post sends one /plan request and returns the decoded response.
func (h *httpBench) post(path string, body []byte) (*service.PlanResponse, error) {
	resp, err := h.client.Post(h.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var pr service.PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// serverCounters reads the admission-rejection and timeout counters from
// /metrics.
func (h *httpBench) serverCounters() (rejected, timeouts float64, err error) {
	resp, err := h.client.Get(h.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "dpserved_admission_rejections_total":
			rejected, err = strconv.ParseFloat(val, 64)
		case "dpserved_request_timeouts_total":
			timeouts, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return rejected, timeouts, sc.Err()
}

type job struct {
	step     int
	measured bool // due after the step's warm-up
	due      time.Time
	body     []byte
}

type reply struct {
	measured bool
	code     int           // HTTP status; 0 transport error, -1 dropped after the ladder stopped
	lat      time.Duration // from due time
	sent     time.Time
	done     time.Time
	due      time.Time
	resp     *service.PlanResponse // traced ladders only
}

type stepOut struct {
	rate     float64
	sent     int
	errs     int     // replies, warm-up included, that were not 2xx
	replies  []reply // measured replies
	ok, bad  int     // measured 2xx, other
	backlog  int
	lags     []float64     // dispatcher lag, ms
	p99      time.Duration // of the 2xx replies
	achieved float64       // measured 2xx per second
	pass     bool
	invalid  bool
	why      string
}

// runLadder drives the open-loop generator: one dispatcher stamps each
// request with its due time into a FIFO, and the senders drain it over
// their own connections. Latency is measured from the due time, so a
// stall charges every request it delays. Steps run back to back; after
// each the dispatcher waits for the step's replies and applies the pass
// rules, and the ladder ends at the first failing step or after steps
// steps.
func (h *httpBench) runLadder(seq *reqSeq, window time.Duration, steps int, traced bool) []stepOut {
	warm, stepDur, _ := httpTimes(window)
	path := "/plan"
	if traced {
		path += "?explain=1"
	}
	maxN := 0
	for _, r := range ladder[:steps] {
		maxN = max(maxN, int(r*stepDur.Seconds())+1)
	}
	fifo := make(chan job, maxN) // one step's requests: the dispatcher never blocks
	var (
		stopped atomic.Bool
		pending [maxSteps]sync.WaitGroup
		got     [senders][maxSteps][]reply
		wg      sync.WaitGroup
	)
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range fifo {
				r := reply{measured: j.measured, due: j.due, code: -1}
				if !stopped.Load() {
					r.sent = time.Now()
					r.code, r.resp = h.send(path, j.body, traced)
					r.done = time.Now()
					r.lat = r.done.Sub(j.due)
				}
				got[s][j.step] = append(got[s][j.step], r)
				pending[j.step].Done()
			}
		}()
	}

	var out []stepOut
	for k := range steps {
		rate := ladder[k]
		n := int(rate * stepDur.Seconds())
		warmN := int(rate * warm.Seconds())
		so := stepOut{rate: rate, sent: n, lags: make([]float64, 0, n)}
		pending[k].Add(n)
		t0 := time.Now()
		for i := range n {
			due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			sleepUntil(due)
			so.lags = append(so.lags, float64(time.Since(due))/1e6)
			fifo <- job{step: k, measured: i >= warmN, due: due, body: seq.next().body}
		}
		so.backlog = len(fifo)
		if float64(so.backlog) > maxBacklog*float64(n) {
			stopped.Store(true)
		}
		drained := make(chan struct{})
		go func() { pending[k].Wait(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(drainDeadline):
			stopped.Store(true)
			<-drained // dropped jobs finish fast; in-flight ones within the server timeout
		}
		for s := range senders {
			for _, r := range got[s][k] {
				if r.code < 200 || r.code >= 300 {
					so.errs++
				}
				if r.measured {
					so.replies = append(so.replies, r)
				}
			}
		}
		so.judge()
		out = append(out, so)
		if !so.pass {
			break
		}
	}
	stopped.Store(true)
	close(fifo)
	wg.Wait()
	return out
}

// judge applies the step rules: p99 from due time at most maxP99 (a
// failed request misses any limit), at least minOK of the requests 2xx,
// and a FIFO backlog at step end of at most maxBacklog of the step. A
// step whose dispatcher lag p99 exceeds maxLagP99 is marked invalid —
// the generator, not only the server, fell behind its schedule — but
// passes or fails by the three rules.
func (so *stepOut) judge() {
	lat := make([]float64, 0, len(so.replies))
	var first, last time.Time
	for _, r := range so.replies {
		if r.code >= 200 && r.code < 300 {
			so.ok++
			lat = append(lat, float64(r.lat))
			if first.IsZero() || r.due.Before(first) {
				first = r.due
			}
			if r.done.After(last) {
				last = r.done
			}
		} else {
			so.bad++
			lat = append(lat, math.Inf(1))
		}
	}
	slices.Sort(lat)
	p99 := quantile(lat, 0.99)
	so.p99 = time.Duration(quantile(lat[:so.ok], 0.99)) // 2xx only: finite
	if so.ok > 0 {
		so.achieved = float64(so.ok) / last.Sub(first).Seconds()
	}
	slices.Sort(so.lags)
	var why []string
	if total := so.ok + so.bad; total == 0 || float64(so.ok) < minOK*float64(total) {
		why = append(why, fmt.Sprintf("%d of %d replies not 2xx", so.bad, total))
	}
	if p99 > float64(maxP99) {
		why = append(why, fmt.Sprintf("p99 %.2f ms > %v", p99/1e6, maxP99))
	}
	if float64(so.backlog) > maxBacklog*float64(so.sent) {
		why = append(why, fmt.Sprintf("backlog %d of %d", so.backlog, so.sent))
	}
	so.pass = len(why) == 0
	if lag := quantile(so.lags, 0.99); lag > float64(maxLagP99)/1e6 {
		so.invalid = true
		why = append(why, fmt.Sprintf("dispatcher lag p99 %.3f ms", lag))
	}
	so.why = strings.Join(why, "; ")
}

// p50 is the median latency from due time of the step's 2xx replies.
func (so *stepOut) p50() time.Duration {
	var lat []float64
	for _, r := range so.replies {
		if r.code >= 200 && r.code < 300 {
			lat = append(lat, float64(r.lat))
		}
	}
	slices.Sort(lat)
	return time.Duration(quantile(lat, 0.5))
}

// send posts one request body and returns the status code, decoding the
// response only when traced.
func (h *httpBench) send(path string, body []byte, decode bool) (int, *service.PlanResponse) {
	resp, err := h.client.Post(h.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	if !decode || resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var pr service.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, nil
	}
	return resp.StatusCode, &pr
}

// capacity is what the closed-loop window measured.
type capacity struct {
	n, errs int
	scaled  time.Duration // the window's duration at reference speed
	speed   float64       // median scale factor to reference speed
	lat     []float64     // sorted latencies of the 2xx replies at reference speed, µs
}

// saturate runs the senders closed-loop for d, in slices (see sliced),
// continuing seq: each sends its next request as soon as its previous
// reply arrives, so the completion rate is the server's capacity for the
// traffic mix and the latencies are what two clients waiting on their
// replies see.
func (h *httpBench) saturate(seq *reqSeq, d time.Duration) capacity {
	var (
		mu  sync.Mutex
		out capacity
	)
	lat := make([]*reservoir, senders)
	for s := range senders {
		lat[s] = newReservoir(1<<14, uint64(s)+1)
	}
	out.scaled, out.speed = sliced(d, func(deadline time.Time, scale float64) {
		var wg sync.WaitGroup
		for s := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					body := seq.next().body
					mu.Unlock()
					t0 := time.Now()
					code, _ := h.send("/plan", body, false)
					t1 := time.Now()
					ok := code >= 200 && code < 300
					if ok {
						lat[s].add(float64(t1.Sub(t0)) / 1e3 * scale)
					}
					mu.Lock()
					out.n++
					if !ok {
						out.errs++
					}
					mu.Unlock()
					if t1.After(deadline) {
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	out.lat = merged(lat...)
	return out
}

// sleepUntil sleeps in nanosleep(2) slices. Runtime timers wake with
// ~1 ms granularity when the process is idle, which alone would exceed
// the dispatcher lag limit; nanosleep wakes within tens of microseconds.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func runHTTP(rc runConfig) (*result, error) {
	hot, err := makePool(rc.seed, "http-hot", httpCells, hotDocs, false, true)
	if err != nil {
		return nil, err
	}
	// The generator gets a P of its own beside the server's, so its
	// dispatcher is not queued behind a running enumeration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs + 1))

	var h *httpBench
	setup, err := timeSetups(func() error {
		if h != nil {
			h.close()
		}
		h, err = newHTTPBench(hot)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()

	// The cold pool is generated after set-up, which would otherwise
	// mark it in every collection (see runLib).
	cold, err := makePool(rc.seed, "http-cold", httpCells, coldDocs, false, true)
	if err != nil {
		return nil, err
	}
	// Beyond the verified sample only the request bodies are needed;
	// dropping the decoded documents spares the collector their pointers.
	for i := verifyCount; i < len(cold); i++ {
		cold[i].doc = nil
	}

	corpus, err := makePool(qualitySeed, "http-hot", httpCells, verifyCount, false, true)
	if err != nil {
		return nil, err
	}
	vg := newGate(slices.Concat(hot[:verifyCount], cold[:verifyCount]), corpus, exactRef)
	res := &result{workload: "http-mixed"}
	verify := func() {
		ratios, fails := vg.run(func(it item) (planOut, error) {
			pr, err := h.post("/plan", it.body)
			if err != nil {
				return planOut{}, err
			}
			return wirePlanOut(pr), nil
		})
		res.attempted += len(vg.items)
		res.fail(fails...)
		res.ratios = ratios
	}

	seq := newReqSeq(rc.seed, hot, cold)
	_, _, closedDur := httpTimes(rc.window())
	c := h.saturate(seq, closedDur)
	heap := liveHeapMB() // before the ladder's reply records exist
	steps := h.runLadder(seq, rc.window(), maxSteps, false)
	res.attempted += c.n
	res.failed += c.errs
	res.speed = c.speed
	res.count(steps)
	verify()

	v := map[string]float64{
		"setup_s":         setup,
		"plan_p50_us":     quantile(c.lat, 0.5),
		"plan_p99_us":     quantile(c.lat, 0.99),
		"plans_per_s":     float64(c.n-c.errs) / c.scaled.Seconds(),
		"plan_cost_ratio": geomean(res.ratios),
		"heap_live_mb":    heap,
	}
	n := map[string]int{
		"setup_s": setupReps, "plan_p50_us": len(c.lat), "plan_p99_us": len(c.lat), "plans_per_s": c.n,
		"plan_cost_ratio": len(res.ratios), "heap_live_mb": 1,
	}
	res.endToEnd = report(endToEnd, v, n)
	res.notes = append([]string{fmt.Sprintf("  closed loop: %d requests in %.2f s at reference speed over %d connections", c.n, c.scaled.Seconds(), senders)},
		ladderTable(steps)...)
	if !rc.traced {
		return res, nil
	}
	if err := h.traceLayers(res, seq, rc, steps); err != nil {
		return nil, err
	}
	verify()
	return res, nil
}

// traceLayers reruns the ladder through the reference step with every
// request traced (explain=1), reads /metrics and the planner's counters
// around it, and fills res's per-layer metrics. The generator metrics
// come from steps, the untraced ladder.
func (h *httpBench) traceLayers(res *result, seq *reqSeq, rc runConfig, steps []stepOut) error {
	rej0, to0, err := h.serverCounters()
	if err != nil {
		return err
	}
	m0 := h.p.Metrics()
	tsteps := h.runLadder(seq, rc.window(), refStep+1, true)
	rej1, to1, err := h.serverCounters()
	if err != nil {
		return err
	}
	dm := delta(m0, h.p.Metrics())
	res.count(tsteps)

	lv := map[string]float64{
		"service.rejected_429": rej1 - rej0,
		"service.timeouts_504": to1 - to0,
	}
	var lags []float64
	for k, so := range steps {
		lags = append(lags, so.lags...)
		lv[fmt.Sprintf("loadgen.step%d_p99_ms", k)] = float64(so.p99) / 1e6
		if so.pass {
			lv["loadgen.max_pass_rate"] = so.rate
		}
	}
	slices.Sort(lags)
	lv["loadgen.lag_p99_ms"] = quantile(lags, 0.99)

	buf := newSpanBuf(spanCap)
	ls := newLayerStats()
	var server, transport, wait []float64
	var coalesced, hits, oks int
	ref := tsteps[min(refStep, len(tsteps)-1)]
	var origin time.Time
	if len(ref.replies) > 0 {
		origin = ref.replies[0].due
	}
	at := func(t time.Time) time.Duration { return t.Sub(origin) }
	for i, r := range ref.replies {
		if r.resp == nil {
			continue
		}
		oks++
		pr := r.resp
		el := time.Duration(pr.ElapsedMS * 1e6)
		ct := wireTrace(pr)
		server = append(server, pr.ElapsedMS)
		transport = append(transport, float64(r.done.Sub(r.sent)-el)/1e6)
		wait = append(wait, float64(el-ct.total)/1e6)
		if pr.Coalesced {
			coalesced++
		}
		if pr.Stats.CacheHit {
			hits++
		}
		rec := buf.request("http-mixed", int64(i), 4+len(ct.spans))
		root := rec.add("request", -1, at(r.due), at(r.done))
		rec.add("loadgen.fifo", root, at(r.due), at(r.sent))
		httpSpan := rec.add("http", root, at(r.sent), at(r.done))
		svc := rec.add("service", httpSpan, at(r.done)-el, at(r.done))
		ls.self["client"] += r.done.Sub(r.due) - el
		ls.self["service"] += el - ct.total
		ls.calls++
		ls.callT += r.lat
		if pr.Coalesced {
			// A follower carries its leader's trace; its time is waiting.
			ls.self["service"] += ct.total
			continue
		}
		d0 := ls.explain(ct, probes{}, rec, svc, at(r.done)-(el-ct.total))
		ls.add("repro.self_us", float64(ct.total-d0)/1e3)
		ls.self["repro"] += ct.total - d0
	}
	ls.values(lv)
	slices.Sort(server)
	slices.Sort(transport)
	slices.Sort(wait)
	lv["service.server_p50_ms"] = quantile(server, 0.5)
	lv["service.server_p99_ms"] = quantile(server, 0.99)
	lv["service.transport_p50_ms"] = quantile(transport, 0.5)
	lv["service.wait_p99_ms"] = quantile(wait, 0.99)
	lv["service.coalesced_ratio"] = ratio(float64(coalesced), float64(oks))
	lv["service.cache_hit_ratio"] = ratio(float64(hits), float64(oks))
	counterMetrics(lv, dm)
	// Both ladders offer the reference step's rate; tracing shows as the
	// rise of its median latency.
	base := steps[min(refStep, len(steps)-1)].p50()
	lv["obs.trace_overhead_pct"] = 100 * float64(ref.p50()-base) / float64(base)

	res.perLayer = report(perLayer, lv, nil)
	for i := range res.perLayer {
		res.perLayer[i].Samples = oks
	}
	res.layers = ls
	res.spans = []*spanBuf{buf}
	res.delta = dm
	res.notes = append(res.notes, "traced ladder:")
	res.notes = append(res.notes, ladderTable(tsteps)...)
	return nil
}

// count adds the requests of the ladder steps up to the reference step
// to attempted and their non-2xx replies to failed.
func (r *result) count(steps []stepOut) {
	for _, so := range steps[:min(refStep+1, len(steps))] {
		r.attempted += so.sent
		r.failed += so.errs
	}
}

// ladderTable renders the steps for the human-readable report.
func ladderTable(steps []stepOut) []string {
	lines := []string{"  step  rate/s   sent  achieved/s   p99 ms  lag p99 ms  backlog  verdict"}
	for k, so := range steps {
		verdict := "pass"
		if !so.pass {
			verdict = "fail"
		}
		if so.invalid {
			verdict += ", invalid"
		}
		if so.why != "" {
			verdict += " (" + so.why + ")"
		}
		lines = append(lines, fmt.Sprintf("  %4d %7.0f %6d %11.1f %8.2f %11.3f %8d  %s",
			k, so.rate, so.sent, so.achieved, float64(so.p99)/1e6, quantile(so.lags, 0.99), so.backlog, verdict))
	}
	return lines
}
