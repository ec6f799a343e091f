package main

import (
	"math"
	"math/rand/v2"
	"slices"
)

// reservoir keeps a uniform random sample of at most cap(s) of the
// values added (Vitter's algorithm R), so the percentiles of a window of
// millions of calls cost fixed memory — and a fixed share of the live
// heap the window ends with. obs.Histogram would too, but its
// log-spaced buckets (10 µs–10 s) cannot resolve a 15 µs cache hit, and
// a bucketed percentile reads the same bound run after run.
type reservoir struct {
	n   int // values added
	s   []float64
	rng *rand.Rand
}

func newReservoir(size int, seed uint64) *reservoir {
	return &reservoir{s: make([]float64, 0, size), rng: rand.New(rand.NewPCG(seed, 0x706c616e))}
}

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.s) < cap(r.s) {
		r.s = append(r.s, v)
		return
	}
	if j := r.rng.IntN(r.n); j < len(r.s) {
		r.s[j] = v
	}
}

// merged returns the sorted union of the samples. Each reservoir is a
// uniform sample of its own caller's calls; closed-loop callers complete
// nearly equal call counts, so the union is uniform to within that skew.
func merged(rs ...*reservoir) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.s...)
	}
	slices.Sort(out)
	return out
}

// quantile returns the q-quantile of sorted values, interpolating
// linearly between the closest ranks. It is 0 for an empty sample: a
// per-layer metric of a layer the workload never reached.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) with its default "exclusive"
// method, clamping included, which is how the spread rule in README.md
// is computed.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// mean accumulates an average.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m *mean) merge(o mean) { m.sum += o.sum; m.n += o.n }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// median of unsorted values.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
