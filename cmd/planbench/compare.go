package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBench(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchDef
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRuns reads a -json file: workload → metric → values, in run order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges head against base for one workload × metric, pairing
// the i-th runs of both sides (run them interleaved). A gain needs at
// least ten pairs, head winning at least nine tenths of them (ties count
// for neither), and medians further apart than base's interquartile
// range. A head median worse than base's by more than the bound
// regresses, however wide the spread. Otherwise, where base's spread is
// wider than the bound, the metric is unresolved rather than unchanged,
// unless every head run beats every base run. It also returns the pairs
// head won and the pairs compared.
func verdict(base, head []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	q1, mb, q3 := quartiles(base)
	_, mh, _ := quartiles(head)
	pairs = min(len(base), len(head))
	for i := range pairs {
		if sign*(head[i]-base[i]) > 0 {
			wins++
		}
	}
	allBetter := true
	for _, b := range base {
		for _, h := range head {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	gain := sign * (mh - mb)
	switch {
	case pairs >= 10 && wins*10 >= pairs*9 && gain > q3-q1:
		return "improved", wins, pairs
	case -gain > bound*math.Abs(mb):
		return "regressed", wins, pairs
	case q3-q1 > bound*math.Abs(mb) && !allBetter:
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

// compareMain implements -compare base.json head.json. It exits 1 when
// any workload × metric regressed.
func compareMain(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "planbench: -compare needs two -json files: base and head")
		return 2
	}
	def, err := loadBench("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		return 2
	}
	base, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		return 2
	}
	head, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-11s %-16s %34s %34s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			b, h := base[wl][m.Name], head[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, wins, pairs := verdict(b, h, m.Better == "higher", m.Bound)
			if v == "regressed" {
				code = 1
			}
			bq1, bm, bq3 := quartiles(b)
			hq1, hm, hq3 := quartiles(h)
			fmt.Fprintf(w, "%-11s %-16s %12.5g [%9.5g, %9.5g] %12.5g [%9.5g, %9.5g] %3d/%-2d  %s (bound %g)\n",
				wl, m.Name, bm, bq1, bq3, hm, hq1, hq3, wins, pairs, v, m.Bound)
		}
	}
	return code
}
