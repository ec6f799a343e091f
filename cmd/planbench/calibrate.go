package main

import (
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Every time the benchmark reports is scaled to a reference speed. The
// 2-CPU box the benchmark was built on shares its cores and caches with
// other tenants, and its speed drifts: the same binary and seed ran
// 10–30% slower for minutes at a time while its neighbours were busy,
// which is wider than any regression bound worth having. So a window
// runs in slices, and before each slice the benchmark times a fixed
// kernel that uses only the standard library — no change to the planner
// moves it — and scales the slice's times by the kernel's reference time
// over its measured one. Contention from other tenants slows the kernel
// and the planner alike and cancels; a faster or slower planner does not.
// Over ten seeds this cut the spread of the timing metrics from up to
// 0.38 of their median to 0.02–0.11 (README.md).

// calRef is the kernel's time on the reference box in a quiet period.
const calRef = time.Millisecond

// sliceDur is how long a window runs between two calibrations.
const sliceDur = 250 * time.Millisecond

// calReps is how many times each goroutine runs the kernel per
// calibration.
const calReps = 4

var (
	calSink uint64
	// calSorts are the kernel's arrays to sort, one per calibrating
	// goroutine, allocated once so that calibration adds nothing to the
	// allocation counts of the window around it.
	calSorts = func() [][]uint64 {
		bufs := make([][]uint64, procs)
		for i := range bufs {
			bufs[i] = make([]uint64, 4096)
		}
		return bufs
	}()
	// calMem is the 16 MB the kernel reads at random, far beyond a
	// core's private caches, so the reads reach the cache and memory
	// other tenants share. It is mapped outside the Go heap, so it adds
	// nothing to heap_live_mb, and written once so that every page is
	// backed by memory of its own.
	calMem = func() []uint64 {
		b, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("planbench: mapping the calibration buffer: " + err.Error())
		}
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
		for i := range words {
			words[i] = uint64(i)
		}
		return words
	}()
)

// kernel sorts a xorshift sequence in a, twice, then reads calMem at
// random: one run exercises the processor and the memory hierarchy, as
// planning does.
func kernel(a []uint64) {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for range 2 {
		for i := range a {
			a[i] = next()
		}
		slices.Sort(a)
	}
	sum := a[0]
	for range 1 << 15 {
		sum += calMem[next()%uint64(len(calMem))]
	}
	calSink += sum
}

// calibrate runs the kernel calReps times on each of procs goroutines at
// once and returns the factor that scales a time measured now to the
// reference speed: calRef over the mean of each goroutine's fastest run.
// The fastest run skips a repetition that an interrupt or a collection
// slowed; contention from other tenants slows every repetition.
func calibrate() float64 {
	best := make([]time.Duration, procs)
	var wg sync.WaitGroup
	for g := range best {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range calReps {
				t0 := time.Now()
				kernel(calSorts[g])
				if d := time.Since(t0); r == 0 || d < best[g] {
					best[g] = d
				}
			}
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	return float64(calRef) * float64(len(best)) / float64(sum)
}

// sliced runs a window of d in slices of sliceDur, calibrating before
// each. slice runs the callers until the deadline it is given, scaling
// the latencies it records by scale. sliced returns the window's
// duration at reference speed and the median scale factor.
func sliced(d time.Duration, slice func(deadline time.Time, scale float64)) (scaled time.Duration, speed float64) {
	var scales []float64
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		scale := calibrate()
		scales = append(scales, scale)
		t0 := time.Now()
		deadline := t0.Add(sliceDur)
		if deadline.After(end) {
			deadline = end
		}
		slice(deadline, scale)
		scaled += time.Duration(float64(time.Since(t0)) * scale)
	}
	return scaled, median(scales)
}
