// Command joinorder optimizes a single query given in the repository's
// JSON format (see repro.QueryJSON) and prints the optimal plan.
//
// Usage:
//
//	joinorder query.json
//	joinorder -algorithm dpsize query.json
//	joinorder -algorithm auto query.json      # topology-routed solver
//	joinorder -model physical query.json      # physical operator selection
//	cat query.json | joinorder -
//	joinorder -trace -stats query.json
//	joinorder -dot query.json        # emit the query hypergraph as Graphviz
//	joinorder -timeout 2s -max-pairs 100000 query.json
//
// The query is either a hypergraph ("relations" + "edges") or an initial
// operator tree ("relations" + "tree") for queries with outer joins,
// antijoins, semijoins, or nestjoins.
//
// With -timeout the optimization is cancelled mid-enumeration when the
// deadline passes; with -max-pairs / -max-plans the exact enumeration
// is budgeted and degrades to a Greedy (GOO) plan when the budget
// trips (reported on stderr and in -stats).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	var (
		algName   = flag.String("algorithm", "dphyp", "dphyp | dpsize | dpsub | dpccp | topdown | greedy | iterdp | auto")
		modelName = flag.String("model", "cout", "cost model: cout | cmm | nlj | hash | physical")
		genTest   = flag.Bool("generate-and-test", false, "use the §5.8 TES generate-and-test mode for tree queries")
		published = flag.Bool("published-rule", false, "use the literal §5.5 conflict rule instead of the conservative default")
		showTrace = flag.Bool("trace", false, "print the DPhyp enumeration trace (Fig. 3 style)")
		showStats = flag.Bool("stats", false, "print enumeration statistics")
		compact   = flag.Bool("compact", false, "print the plan on one line")
		dot       = flag.Bool("dot", false, "emit the query hypergraph as Graphviz and exit")
		timeout   = flag.Duration("timeout", 0, "optimization deadline, 0 = none")
		maxPairs  = flag.Int("max-pairs", 0, "budget: max csg-cmp-pairs before Greedy fallback, 0 = unlimited")
		maxPlans  = flag.Int("max-plans", 0, "budget: max costed plans before Greedy fallback, 0 = unlimited")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: joinorder [flags] <query.json | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	data, err := readInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	q, err := repro.ParseQuery(data)
	if err != nil {
		fail(err)
	}

	alg, err := repro.ParseAlgorithm(*algName)
	if err != nil {
		fail(err)
	}
	model, err := repro.ParseCostModel(*modelName)
	if err != nil {
		fail(err)
	}
	opts := []repro.Option{repro.WithAlgorithm(alg), repro.WithCostModel(model)}
	if *genTest {
		opts = append(opts, repro.WithGenerateAndTest())
	}
	if *published {
		opts = append(opts, repro.WithPublishedConflictRule())
	}
	var tr repro.Trace
	if *showTrace {
		opts = append(opts, repro.WithTrace(&tr))
	}
	if *maxPairs > 0 || *maxPlans > 0 {
		opts = append(opts, repro.WithBudget(repro.Budget{
			MaxCsgCmpPairs: *maxPairs,
			MaxCostedPlans: *maxPlans,
		}))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	planner := repro.NewPlanner(opts...)
	res, err := planner.PlanJSON(ctx, q)
	if err != nil {
		fail(err)
	}
	if res.Stats.FallbackGreedy {
		fmt.Fprintln(os.Stderr, "joinorder: enumeration budget exhausted; returning greedy (GOO) plan")
	}

	if *dot {
		fmt.Print(res.Graph.Dot())
		return
	}
	if *compact {
		fmt.Println(res.Plan.Compact())
	} else {
		fmt.Print(res.Plan.String())
	}
	fmt.Printf("cost=%g cardinality=%g shape=%s\n", res.Cost(), res.Cardinality(), res.Plan.TreeShape())
	if *showStats {
		s := res.Stats
		fmt.Printf("csg-cmp-pairs=%d costed-plans=%d filter-rejected=%d invalid-rejected=%d table-entries=%d algorithm=%s budget-exhausted=%t fallback-greedy=%t\n",
			s.CsgCmpPairs, s.CostedPlans, s.FilterReject, s.InvalidReject, s.TableEntries,
			res.Algorithm, s.BudgetExhausted, s.FallbackGreedy)
		if s.AutoRouted {
			fmt.Printf("auto-routed: shape=%s routed-algorithm=%s\n", s.Shape, s.RoutedAlgorithm)
		}
	}
	if *showTrace {
		fmt.Print(tr.String())
	}
}

func readInput(arg string) ([]byte, error) {
	if arg == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(arg)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "joinorder:", err)
	os.Exit(1)
}
