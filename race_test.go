//go:build race

package repro

// The race detector's runtime adds two allocations to a BuildQuery+Plan
// cache hit (measured at 11, 11 and 12 for TestCacheHitAllocs's chain12,
// cycle10 and star11); the escape analysis is the same in both builds.
func init() { raceAllocs = 2 }
