// Command dpbench reproduces every table and figure of the evaluation of
// "Dynamic Programming Strikes Back" (SIGMOD 2008).
//
// Usage:
//
//	dpbench                 # run the quick (reduced-size) suite
//	dpbench -full           # run at the paper's sizes (minutes)
//	dpbench -run fig7-star-regular
//	dpbench -list           # list experiment identifiers
//	dpbench -reps 5         # median over more repetitions
//	dpbench -csv            # machine-readable output
//	dpbench -json out.json  # additionally write a JSON result file
//	dpbench -cell-timeout 30s  # cancel cells that exceed the deadline
//
// For every experiment the output is one row per sweep value with the
// median optimization time per competing algorithm in milliseconds —
// the same series the paper plots — plus the number of csg-cmp-pairs
// enumerated (the search-space size of §2.2). Cells cancelled by
// -cell-timeout print "t/o" (tables) or a row with ms = -1 (CSV).
//
// A second mode sweeps the §4 shape families (chain, cycle, star,
// clique) through the public Planner with a chosen solver and cost
// model instead of the fixed experiment series:
//
//	dpbench -solver auto               # topology-routed solver selection
//	dpbench -solver auto -cost physical
//	dpbench -solver dphyp -cost cmm -sweep-max-n 14
//
// With -solver auto each row additionally reports which algorithm the
// planner's topology router picked for the cell.
//
// A third mode prices the degradation ladder's bottom rung: -regret
// plans every shape family × cost model × size both exactly and
// greedily and reports greedy-cost ÷ optimal-cost (1.0 = greedy found
// the optimum), with per-family geomean and worst-case summaries:
//
//	dpbench -regret
//	dpbench -regret -sweep-max-n 14 -csv
//
// -json writes the same measurements as a machine-readable file (one
// record per cell: family/experiment, n, solver, cost model, the
// algorithm that actually ran, median wall ms, csg-cmp-pairs, costed
// plans, plan cost, and the per-run allocation footprint — median heap
// bytes and allocation count, measured as runtime.MemStats deltas), so
// per-PR perf trajectories (BENCH_*.json) can be diffed mechanically,
// including the allocation baseline of the memo engine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/dp"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// jsonRecord is one measured cell in the -json output.
type jsonRecord struct {
	// Experiment is the experiment id (suite mode) or "shape-sweep".
	Experiment string `json:"experiment"`
	// Family is the §4 shape family (shape-sweep mode only).
	Family string `json:"family,omitempty"`
	// N is the sweep value (relations, or the series' x).
	N int `json:"n"`
	// Solver is what was asked for (a series algorithm, or -solver).
	Solver    string `json:"solver"`
	CostModel string `json:"cost_model"`
	// Algorithm is what actually ran (differs from Solver under auto
	// routing or greedy fallback); empty when the cell timed out.
	Algorithm   string  `json:"algorithm,omitempty"`
	MS          float64 `json:"ms"` // median wall time; -1 when timed out
	CsgCmpPairs int     `json:"csg_cmp_pairs"`
	CostedPlans int     `json:"costed_plans"`
	Cost        float64 `json:"cost"`
	// BytesPerOp and AllocsPerOp are the median heap bytes and heap
	// allocations of one planning call (runtime.MemStats deltas around
	// the run; the process is single-threaded while measuring).
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	TimedOut    bool   `json:"timed_out,omitempty"`
	// GreedyCost and Regret are -regret mode only: the greedy plan's
	// cost for the cell and its ratio to the exact optimum (Cost).
	GreedyCost float64 `json:"greedy_cost,omitempty"`
	Regret     float64 `json:"regret,omitempty"`
}

// jsonReport is the top-level -json document. NumCPU and GOMAXPROCS
// record the hardware the numbers were taken on, so every BENCH_*.json
// carries its own.
type jsonReport struct {
	Reps       int          `json:"reps"`
	Full       bool         `json:"full"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []jsonRecord `json:"results"`
}

func (r *jsonReport) add(rec jsonRecord) {
	if r != nil {
		r.Results = append(r.Results, rec)
	}
}

func (r *jsonReport) write(path string) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench: encoding -json report:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dpbench: writing -json report:", err)
		os.Exit(1)
	}
}

func main() {
	var (
		full    = flag.Bool("full", false, "run at the paper's sizes (DPsize/DPsub on 16-relation stars take minutes)")
		run     = flag.String("run", "", "comma-separated experiment ids to run (default: all)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		reps    = flag.Int("reps", 3, "repetitions per measurement (median is reported)")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables")
		timeout = flag.Duration("cell-timeout", 0, "per-cell deadline, 0 = none (cancellation is checked inside the enumeration loops)")
		solver  = flag.String("solver", "", "run the §4 shape sweep with this solver (auto | dphyp | dpsize | dpsub | dpccp | topdown | greedy | iterdp) instead of the experiment suite")
		costMod = flag.String("cost", "cout", "cost model for the -solver sweep: cout | cmm | nlj | hash | physical")
		sweepN  = flag.Int("sweep-max-n", 12, "largest relation count per family in the -solver sweep")
		regret  = flag.Bool("regret", false, "report greedy regret (greedy cost ÷ exact-optimal cost) per shape family × cost model — the plan-quality price of the overload ladder's bottom rung")
		jsonOut = flag.String("json", "", "write machine-readable results to this path")
	)
	flag.Parse()

	var report *jsonReport
	if *jsonOut != "" {
		report = &jsonReport{
			Reps: *reps, Full: *full,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Results: []jsonRecord{},
		}
	}

	if *regret {
		runRegret(*sweepN, *csv, report)
		if report != nil {
			report.write(*jsonOut)
		}
		return
	}

	if *solver != "" {
		runShapeSweep(*solver, *costMod, *sweepN, *reps, *csv, *timeout, report)
		if report != nil {
			report.write(*jsonOut)
		}
		return
	}

	set := experiments.Quick()
	if *full {
		set = experiments.All()
	}
	if *list {
		for _, s := range set {
			fmt.Printf("%-22s %s\n", s.ID, s.Title)
		}
		return
	}
	selected := set
	if *run != "" {
		selected = nil
		for _, id := range strings.Split(*run, ",") {
			s, ok := experiments.ByID(set, strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dpbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, s)
		}
	}

	if *csv {
		fmt.Println("experiment,x,algorithm,ms,csg_cmp_pairs,costed_plans,cost")
	} else {
		// Suite header: timings are only comparable across runs taken on
		// the same hardware, so every report leads with the core count.
		fmt.Printf("# dpbench suite  [reps=%d full=%v cpus=%d gomaxprocs=%d]\n",
			*reps, *full, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	for _, s := range selected {
		runSeries(s, *reps, *csv, *timeout, report)
	}
	if report != nil {
		report.write(*jsonOut)
	}
}

func runSeries(s experiments.Series, reps int, csv bool, timeout time.Duration, report *jsonReport) {
	if !csv {
		fmt.Printf("\n## %s  [%s]\n", s.Title, s.ID)
		if s.Paper != "" {
			fmt.Printf("paper expectation: %s\n", s.Paper)
		}
		fmt.Printf("\n| %s |", s.XLabel)
		for _, a := range s.Algs {
			fmt.Printf(" %s [ms] |", a)
		}
		fmt.Printf(" #ccp |\n|")
		for i := 0; i < len(s.Algs)+2; i++ {
			fmt.Printf("---|")
		}
		fmt.Println()
	}
	for _, x := range s.Xs {
		if !csv {
			fmt.Printf("| %d |", x)
		}
		var pairs int
		for _, alg := range s.Algs {
			runner := s.Make(x, alg)
			ms, st, cost, bytesPer, allocsPer, timedOut := measure(runner, reps, timeout)
			pairs = st.CsgCmpPairs
			rec := jsonRecord{
				Experiment: s.ID, N: x, Solver: alg, CostModel: "cout",
				MS: ms, CsgCmpPairs: st.CsgCmpPairs, CostedPlans: st.CostedPlans, Cost: cost,
				BytesPerOp: bytesPer, AllocsPerOp: allocsPer,
			}
			if timedOut {
				rec.MS, rec.Cost, rec.TimedOut = -1, 0, true
			} else {
				rec.Algorithm = alg
			}
			report.add(rec)
			switch {
			case csv && timedOut:
				fmt.Printf("%s,%d,%s,-1,%d,%d,NaN\n", s.ID, x, alg, st.CsgCmpPairs, st.CostedPlans)
			case csv:
				fmt.Printf("%s,%d,%s,%.4f,%d,%d,%g\n", s.ID, x, alg, ms, st.CsgCmpPairs, st.CostedPlans, cost)
			case timedOut:
				fmt.Printf(" t/o |")
			default:
				fmt.Printf(" %s |", fmtMS(ms))
			}
		}
		if !csv {
			fmt.Printf(" %d |\n", pairs)
		}
	}
}

// allocMeter snapshots runtime.MemStats around one run so each cell can
// report its allocation footprint alongside wall time. The deltas are
// exact for the single-threaded benchmark loop (no concurrent mutators).
type allocMeter struct{ before runtime.MemStats }

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

func (a *allocMeter) stop() (bytes, allocs uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - a.before.TotalAlloc, after.Mallocs - a.before.Mallocs
}

// medianU64 returns the median of a non-empty sample.
func medianU64(xs []uint64) uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// measure returns the median wall time in milliseconds over reps runs,
// the enumeration statistics, the plan cost, the median allocation
// footprint, and whether the cell was cancelled by the per-cell
// deadline.
func measure(r experiments.Runner, reps int, timeout time.Duration) (float64, dp.Stats, float64, uint64, uint64, bool) {
	times := make([]float64, 0, reps)
	bytesPer := make([]uint64, 0, reps)
	allocsPer := make([]uint64, 0, reps)
	var stats dp.Stats
	var cost float64
	var meter allocMeter
	for i := 0; i < reps; i++ {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		meter.start()
		start := time.Now()
		p, st, err := r(ctx)
		elapsed := time.Since(start)
		b, a := meter.stop()
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				// Partial statistics show how far the cell got.
				return 0, st, 0, 0, 0, true
			}
			fmt.Fprintf(os.Stderr, "dpbench: optimization failed: %v\n", err)
			os.Exit(1)
		}
		times = append(times, float64(elapsed.Nanoseconds())/1e6)
		bytesPer = append(bytesPer, b)
		allocsPer = append(allocsPer, a)
		stats = st
		cost = p.Cost
		// Very slow cells are not repeated: one sample tells the story.
		if elapsed > 20*time.Second {
			break
		}
	}
	sort.Float64s(times)
	return times[len(times)/2], stats, cost, medianU64(bytesPer), medianU64(allocsPer), false
}

// runShapeSweep drives the §4 chain/cycle/star/clique families through
// the public Planner — the adaptive-planning counterpart of the fixed
// experiment series. Cliques are capped at 12 relations for exact
// solvers (their Θ(3ⁿ) cells leave the benchmark regime); the auto
// router degrades larger cliques to greedy by itself, so -solver auto
// sweeps the full range.
func runShapeSweep(solverName, costName string, maxN, reps int, csv bool, timeout time.Duration, report *jsonReport) {
	if reps < 1 {
		reps = 1
	}
	alg, err := repro.ParseAlgorithm(solverName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(2)
	}
	model, err := repro.ParseCostModel(costName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(2)
	}
	// Caching is disabled: every cell must measure a real enumeration.
	planner := repro.NewPlanner(
		repro.WithAlgorithm(alg),
		repro.WithCostModel(model),
		repro.WithPlanCacheSize(0),
	)
	// Up to the historical 64-relation ceiling the sweep keeps the
	// DefaultConfig cells comparable with earlier BENCH_PR*.json records;
	// beyond it the LargeConfig regime applies — DefaultConfig's ~10x
	// per-join growth overflows float64 cardinalities near 100 joins,
	// while LargeConfig's PK-FK-style selectivities keep every cell's
	// cost finite for the iterdp tier.
	cfgFor := func(n int) workload.Config {
		if n > 64 {
			return workload.LargeConfig()
		}
		return workload.DefaultConfig()
	}

	cliqueMax := maxN
	if alg != repro.SolverAuto && alg != repro.Greedy && alg != repro.IterDP && cliqueMax > 12 {
		cliqueMax = 12
	}
	families := []struct {
		name string
		make func(n int) *repro.Graph
		maxN int
	}{
		{"chain", func(n int) *repro.Graph { return workload.Chain(n, cfgFor(n)) }, maxN},
		{"cycle", func(n int) *repro.Graph { return workload.Cycle(n, cfgFor(n)) }, maxN},
		{"star", func(n int) *repro.Graph { return workload.Star(n, cfgFor(n)) }, maxN},
		{"clique", func(n int) *repro.Graph { return workload.Clique(n, cfgFor(n)) }, cliqueMax},
	}

	if csv {
		fmt.Println("family,n,solver,cost_model,algorithm,ms,csg_cmp_pairs,cost")
	} else {
		fmt.Printf("\n## §4 shape sweep  [solver=%s cost=%s cpus=%d gomaxprocs=%d]\n\n",
			solverName, costName, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		fmt.Println("| family | n | algorithm | ms | #ccp | cost |")
		fmt.Println("|---|---|---|---|---|---|")
	}
	for _, fam := range families {
		for n := 4; n <= fam.maxN; n++ {
			g := fam.make(n)
			var (
				times     []float64
				bytesPer  []uint64
				allocsPer []uint64
				res       *repro.Result
				meter     allocMeter
			)
			timedOut := false
			for r := 0; r < reps; r++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				meter.start()
				start := time.Now()
				out, err := planner.PlanGraph(ctx, g)
				elapsed := time.Since(start)
				b, a := meter.stop()
				cancel()
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) {
						timedOut = true
						break
					}
					fmt.Fprintf(os.Stderr, "dpbench: %s n=%d: %v\n", fam.name, n, err)
					os.Exit(1)
				}
				res = out
				times = append(times, float64(elapsed.Nanoseconds())/1e6)
				bytesPer = append(bytesPer, b)
				allocsPer = append(allocsPer, a)
			}
			if timedOut {
				report.add(jsonRecord{
					Experiment: "shape-sweep", Family: fam.name, N: n,
					Solver: solverName, CostModel: costName, MS: -1, TimedOut: true,
				})
				if csv {
					fmt.Printf("%s,%d,%s,%s,,-1,0,NaN\n", fam.name, n, solverName, costName)
				} else {
					fmt.Printf("| %s | %d | t/o | t/o | | |\n", fam.name, n)
				}
				continue
			}
			sort.Float64s(times)
			ms := times[len(times)/2]
			algName := res.Algorithm.String()
			report.add(jsonRecord{
				Experiment: "shape-sweep", Family: fam.name, N: n,
				Solver: solverName, CostModel: costName, Algorithm: algName,
				MS: ms, CsgCmpPairs: res.Stats.CsgCmpPairs, CostedPlans: res.Stats.CostedPlans,
				Cost: res.Cost(), BytesPerOp: medianU64(bytesPer), AllocsPerOp: medianU64(allocsPer),
			})
			if csv {
				fmt.Printf("%s,%d,%s,%s,%s,%.4f,%d,%g\n",
					fam.name, n, solverName, costName, algName, ms, res.Stats.CsgCmpPairs, res.Cost())
			} else {
				fmt.Printf("| %s | %d | %s | %s | %d | %.4g |\n",
					fam.name, n, algName, fmtMS(ms), res.Stats.CsgCmpPairs, res.Cost())
			}
		}
	}
}

// runRegret quantifies what the degradation ladder's bottom rung gives
// up in plan quality: for every §4 shape family × cost model × size it
// plans the same graph exactly (DPhyp) and greedily (GOO) and reports
// the ratio greedy-cost ÷ optimal-cost. Cliques stop at 12 relations,
// where the exact oracle leaves the benchmark regime. Regret is a pure
// cost computation — cells run once, uncached and untimed — and a
// ratio below 1 is a hard error: it would mean the exact enumeration
// was not optimal under its own cost model.
func runRegret(maxN int, csv bool, report *jsonReport) {
	if maxN < 4 {
		maxN = 4
	}
	cfgFor := func(n int) workload.Config {
		if n > 64 {
			return workload.LargeConfig()
		}
		return workload.DefaultConfig()
	}
	cliqueMax := maxN
	if cliqueMax > 12 {
		cliqueMax = 12
	}
	families := []struct {
		name string
		make func(n int) *repro.Graph
		maxN int
	}{
		{"chain", func(n int) *repro.Graph { return workload.Chain(n, cfgFor(n)) }, maxN},
		{"cycle", func(n int) *repro.Graph { return workload.Cycle(n, cfgFor(n)) }, maxN},
		{"star", func(n int) *repro.Graph { return workload.Star(n, cfgFor(n)) }, maxN},
		{"clique", func(n int) *repro.Graph { return workload.Clique(n, cfgFor(n)) }, cliqueMax},
	}
	models := []string{"cout", "cmm", "nlj", "hash", "physical"}
	exactAlg, err := repro.ParseAlgorithm("dphyp")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(2)
	}
	greedyAlg, err := repro.ParseAlgorithm("greedy")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(2)
	}

	if csv {
		fmt.Println("family,cost_model,n,optimal_cost,greedy_cost,regret")
	} else {
		fmt.Printf("\n## greedy regret vs the exact optimum  [max-n=%d]\n", maxN)
		fmt.Println("regret = greedy cost ÷ optimal cost; 1.0 means greedy found the optimum")
		fmt.Println()
		fmt.Println("| family | cost model | cells | geomean | max | at n |")
		fmt.Println("|---|---|---|---|---|---|")
	}
	for _, fam := range families {
		for _, mname := range models {
			model, err := repro.ParseCostModel(mname)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dpbench:", err)
				os.Exit(2)
			}
			exact := repro.NewPlanner(
				repro.WithAlgorithm(exactAlg), repro.WithCostModel(model), repro.WithPlanCacheSize(0))
			greedy := repro.NewPlanner(
				repro.WithAlgorithm(greedyAlg), repro.WithCostModel(model), repro.WithPlanCacheSize(0))
			var logSum float64
			cells := 0
			maxR, maxAt := 0.0, 0
			for n := 4; n <= fam.maxN; n++ {
				g := fam.make(n)
				opt, err := exact.PlanGraph(context.Background(), g)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dpbench: exact %s n=%d under %s: %v\n", fam.name, n, mname, err)
					os.Exit(1)
				}
				gr, err := greedy.PlanGraph(context.Background(), g)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dpbench: greedy %s n=%d under %s: %v\n", fam.name, n, mname, err)
					os.Exit(1)
				}
				ratio := 0.0
				if opt.Cost() > 0 {
					ratio = gr.Cost() / opt.Cost()
				}
				if ratio > 0 && ratio < 1-1e-9 {
					fmt.Fprintf(os.Stderr, "dpbench: regret %g < 1 for %s n=%d under %s — exact plan not optimal\n",
						ratio, fam.name, n, mname)
					os.Exit(1)
				}
				report.add(jsonRecord{
					Experiment: "regret", Family: fam.name, N: n,
					Solver: "greedy", CostModel: mname, Algorithm: "greedy",
					Cost: opt.Cost(), GreedyCost: gr.Cost(), Regret: ratio,
				})
				if csv {
					fmt.Printf("%s,%s,%d,%g,%g,%.6f\n", fam.name, mname, n, opt.Cost(), gr.Cost(), ratio)
				}
				if ratio > 0 {
					logSum += math.Log(ratio)
					cells++
					if ratio > maxR {
						maxR, maxAt = ratio, n
					}
				}
			}
			if !csv && cells > 0 {
				fmt.Printf("| %s | %s | %d | %.4f | %.4f | %d |\n",
					fam.name, mname, cells, math.Exp(logSum/float64(cells)), maxR, maxAt)
			}
		}
	}
}

func fmtMS(ms float64) string {
	switch {
	case ms < 0.01:
		return fmt.Sprintf("%.4f", ms)
	case ms < 1:
		return fmt.Sprintf("%.3f", ms)
	case ms < 100:
		return fmt.Sprintf("%.2f", ms)
	default:
		return fmt.Sprintf("%.0f", ms)
	}
}
