// Command planbench is the end-to-end and per-layer benchmark of the
// Planner and of dpserved's /plan. It runs four seeded workloads against
// the production configuration (dpserved's defaults), verifies the plans
// it gets back, and prints every metric by name with its unit and
// sample count. See README.md for the workloads, the metrics and how to
// read them.
//
// Usage, from the repository root:
//
//	bash cmd/planbench/bench.sh -seed 2008 -json out.json
//	bash cmd/planbench/bench.sh -workload lib-hot -trace spans.jsonl
//	bash cmd/planbench/bench.sh -compare base.json head.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when a
// plan fails verification (or, with -compare, a metric regressed), 2 on
// a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
)

var workloads = []string{"lib-hot", "lib-cold", "lib-large", "http-mixed"}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// window is the length of each measured window: a traced run measures
// two, untraced and traced, in the seconds of one.
func (rc runConfig) window() time.Duration {
	d := time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		d /= 2
	}
	return d
}

// defaultSpans is the span file of -trace 1.
const defaultSpans = "planbench-spans.jsonl"

// result is one workload's outcome.
type result struct {
	workload  string
	endToEnd  []metric
	perLayer  []metric // traced runs only
	attempted int
	failed    int
	fails     []string  // verification messages
	ratios    []float64 // plan ÷ reference cost over the quality corpus
	speed     float64   // median factor that scaled the window's times to reference speed

	layers     *layerStats // traced runs only
	layerCheck []string    // layers whose self times should cover the call
	spans      []*spanBuf
	delta      repro.PlannerMetrics // planner counters over the traced window
	notes      []string             // extra report lines
}

func (r *result) fail(msgs ...string) {
	r.failed += len(msgs)
	r.fails = append(r.fails, msgs...)
}

func runWorkload(name string, rc runConfig) (*result, error) {
	if name == "http-mixed" {
		return runHTTP(rc)
	}
	spec, ok := libSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
	}
	return runLib(name, spec, rc)
}

func main() {
	var (
		wl      = flag.String("workload", "all", "workload to run: all | "+strings.Join(workloads, " | "))
		seed    = flag.Int64("seed", 2008, "workload seed: the same seed generates the same documents")
		seconds = flag.Float64("seconds", 20, "measured seconds per workload: a traced run splits them between its untraced and traced windows, http-mixed between its closed loop and its rate ladder")
		trace   = flag.String("trace", "", "span file: after the untraced window run a traced one, report the per-layer metrics and write the spans here (0 or empty: no traced run; 1: "+defaultSpans+")")
		jsonOut = flag.String("json", "", "append one JSON record per workload to this file")
		compare = flag.Bool("compare", false, "compare two -json files by BENCHMARK.json's bounds: planbench -compare base.json head.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(os.Stdout, flag.Args()))
	}
	names := workloads
	if *wl != "all" {
		names = []string{*wl}
	}
	if !(*seconds > 0) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "planbench: -seconds must be positive, and no arguments follow the flags")
		os.Exit(2)
	}
	spans := *trace
	if spans == "1" {
		spans = defaultSpans
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: spans != "" && spans != "0"}

	var results []*result
	for _, name := range names {
		res, err := runWorkload(name, rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.print(os.Stdout, rc)
		results = append(results, res)
	}
	if *jsonOut != "" {
		if err := appendRecords(*jsonOut, results, rc); err != nil {
			fmt.Fprintln(os.Stderr, "planbench:", err)
			os.Exit(1)
		}
	}
	if rc.traced {
		var bufs []*spanBuf
		for _, r := range results {
			bufs = append(bufs, r.spans...)
		}
		if err := writeSpans(spans, bufs); err != nil {
			fmt.Fprintln(os.Stderr, "planbench: span file:", err)
			os.Exit(1)
		}
	}
	ok := summary(os.Stdout, results, rc.traced)
	if !ok {
		os.Exit(1)
	}
}

func (r *result) print(w io.Writer, rc runConfig) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g num_cpu=%d gomaxprocs=%d %s\n",
		r.workload, rc.seed, rc.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "  times at reference speed: scaled by %.3f (median over the window's slices)\n", r.speed)
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	for _, m := range append(r.endToEnd, r.perLayer...) {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if r.layers != nil {
		r.layers.printSelf(w, r.workload, r.layerCheck...)
		var dropped int
		for _, b := range r.spans {
			dropped += b.dropped
		}
		if dropped > 0 {
			fmt.Fprintf(w, "  span buffer full: %d requests not written to the span file\n", dropped)
		}
	}
	for _, f := range r.fails {
		fmt.Fprintln(w, "  VERIFY FAILED:", f)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.attempted, r.failed)
}

// summary prints the last line: one JSON object with the end-to-end
// metrics (untraced runs) or the per-layer metrics (traced runs). With
// several workloads the metric names carry a "<workload>/" prefix.
func summary(w io.Writer, results []*result, traced bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if len(r.fails) > 0 {
			out.Correct = false
		}
		ms := r.endToEnd
		if traced {
			ms = r.perLayer
		}
		for _, m := range ms {
			name := m.Name
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(line))
	return out.Correct
}

// record is one -json line: a workload's metrics with their sample
// counts and the box they were measured on.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Speed      float64           `json:"speed"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
}

func appendRecords(path string, results []*result, rc runConfig) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		rec := record{
			Workload: r.workload, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
			Correct: len(r.fails) == 0, Attempted: r.attempted, Failed: r.failed,
			Metrics: map[string]metric{}, Speed: r.speed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		}
		for _, m := range append(r.endToEnd, r.perLayer...) {
			rec.Metrics[m.Name] = m
		}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
