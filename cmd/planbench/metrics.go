package main

import "fmt"

// metric is one reported number: a value, its unit, and the number of
// samples it rests on.
type metric struct {
	Name    string  `json:"-"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// endToEnd lists the metrics a user of the planner sees, with their
// units. Every workload reports all of them from its untraced window;
// see README.md for what each means on the HTTP workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"plan_p50_us", "us"},
	{"plan_p99_us", "us"},
	{"plans_per_s", "1/s"},
	{"plan_cost_ratio", "ratio"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run. A metric of a
// layer the workload does not reach reads 0 (the service and generator
// layers on the library workloads, the enumerators on lib-hot).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.server_p50_ms", "ms"},
		{"service.server_p99_ms", "ms"},
		{"service.transport_p50_ms", "ms"},
		{"service.wait_p99_ms", "ms"},
		{"service.coalesced_ratio", "ratio"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.rejected_429", "count"},
		{"service.timeouts_504", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.max_pass_rate", "1/s"},
	}
	for k := range maxSteps {
		defs = append(defs, metricDef{fmt.Sprintf("loadgen.step%d_p99_ms", k), "ms"})
	}
	defs = append(defs,
		metricDef{"repro.build_us", "us"},
		metricDef{"repro.route_us", "us"},
		metricDef{"repro.cache_lookup_us", "us"},
		metricDef{"repro.self_us", "us"},
		metricDef{"repro.allocs_per_plan", "count"},
		metricDef{"repro.bytes_per_plan", "B"},
		metricDef{"repro.cache_hit_ratio", "ratio"},
		metricDef{"repro.fallback_ratio", "ratio"},
	)
	for _, alg := range routedAlgs {
		defs = append(defs, metricDef{"repro.routed." + alg, "ratio"})
	}
	defs = append(defs,
		metricDef{"hypergraph.fingerprint_ns", "ns"},
		metricDef{"hypergraph.freeze_ns", "ns"},
		metricDef{"shape.classify_ns", "ns"},
		metricDef{"optree.analyze_us", "us"},
	)
	for _, alg := range enumAlgs {
		defs = append(defs,
			metricDef{"enum." + alg + ".us", "us"},
			metricDef{"enum." + alg + ".pairs", "count"},
			metricDef{"enum." + alg + ".ns_per_pair", "ns"},
		)
	}
	return append(defs,
		metricDef{"memo.materialize_us", "us"},
		metricDef{"memo.collect_us", "us"},
		metricDef{"memo.price_us", "us"},
		metricDef{"memo.parallel_ratio", "ratio"},
		metricDef{"memo.grows_per_plan", "count"},
		metricDef{"memo.arena_reuse_ratio", "ratio"},
		metricDef{"iterdp.round_us", "us"},
		metricDef{"iterdp.rounds", "count"},
		metricDef{"iterdp.subproblems", "count"},
		metricDef{"iterdp.recost_us", "us"},
		metricDef{"obs.trace_overhead_pct", "%"},
	)
}()

type metricDef struct{ name, unit string }

// routedAlgs are the algorithms SolverAuto can route to; enumAlgs are
// the enumerators with their own enumerate spans (goo is "greedy" on
// the wire).
var (
	routedAlgs = []string{"dphyp", "dpsize", "dpccp", "dpsub", "topdown", "greedy", "iterdp"}
	enumAlgs   = []string{"dphyp", "dpsize", "dpccp", "dpsub", "topdown", "goo"}
	exactAlgs  = map[string]bool{"dphyp": true, "dpsize": true, "dpccp": true, "dpsub": true, "topdown": true}
)

// enumLayer maps an algorithm's wire name to its enumerator package.
func enumLayer(alg string) string {
	if alg == "greedy" {
		return "goo"
	}
	return alg
}

// report assembles the metrics of defs from values (missing names read
// 0) and samples.
func report(defs []metricDef, values map[string]float64, samples map[string]int) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{Name: d.name, Value: values[d.name], Unit: d.unit, Samples: samples[d.name]}
	}
	return out
}
