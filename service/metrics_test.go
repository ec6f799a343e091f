package service

import (
	"bytes"
	"testing"
	"time"
)

// TestRequestDurationGolden pins the dpserved_request_duration_seconds
// exposition byte for byte, since scrapers parse it: bucket labels, the
// +Inf line, and the %g-formatted sum. The observations cover a sample
// below the first bound, one exactly on a bound, repeated samples, and
// one past the last bound (counted only in +Inf).
func TestRequestDurationGolden(t *testing.T) {
	m := newMetrics()
	for _, d := range []time.Duration{
		50 * time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond,
		2 * time.Millisecond, 2 * time.Millisecond, 40 * time.Millisecond,
		700 * time.Millisecond, 3 * time.Second, 12 * time.Second,
	} {
		m.latency.Observe(d)
	}
	var buf bytes.Buffer
	m.writeLatency(&buf)
	const want = `# TYPE dpserved_request_duration_seconds histogram
dpserved_request_duration_seconds_bucket{le="0.0001"} 2
dpserved_request_duration_seconds_bucket{le="0.00025"} 2
dpserved_request_duration_seconds_bucket{le="0.0005"} 3
dpserved_request_duration_seconds_bucket{le="0.001"} 3
dpserved_request_duration_seconds_bucket{le="0.0025"} 5
dpserved_request_duration_seconds_bucket{le="0.005"} 5
dpserved_request_duration_seconds_bucket{le="0.01"} 5
dpserved_request_duration_seconds_bucket{le="0.025"} 5
dpserved_request_duration_seconds_bucket{le="0.05"} 6
dpserved_request_duration_seconds_bucket{le="0.1"} 6
dpserved_request_duration_seconds_bucket{le="0.25"} 6
dpserved_request_duration_seconds_bucket{le="0.5"} 6
dpserved_request_duration_seconds_bucket{le="1"} 7
dpserved_request_duration_seconds_bucket{le="2.5"} 7
dpserved_request_duration_seconds_bucket{le="5"} 8
dpserved_request_duration_seconds_bucket{le="10"} 8
dpserved_request_duration_seconds_bucket{le="+Inf"} 9
dpserved_request_duration_seconds_sum 15.74445
dpserved_request_duration_seconds_count 9
`
	if got := buf.String(); got != want {
		t.Errorf("rendered histogram differs from the golden text\ngot:\n%s\nwant:\n%s", got, want)
	}
}
