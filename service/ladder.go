package service

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The overload degradation ladder: when the server comes under pressure
// it gives up plan quality before it gives up availability, one tier at
// a time, and sheds only as a last resort.
//
//	tier 0  normal     — requests plan as asked
//	tier 1  tighten    — an effective plan budget is imposed (or the
//	                     request's own is capped), so the budget router
//	                     degrades expensive shapes to cheaper rungs
//	tier 2  greedy     — every request plans greedy-only: about n²
//	                     rankings per plan, each an incidence-row
//	                     walk, so no enumeration can pile up
//	tier 3  shed       — new planning requests are rejected with 429 +
//	                     Retry-After; admitted work keeps draining
//
// Pressure is the max of two signals: admission-queue depth as a
// fraction of capacity (the leading indicator — the queue grows before
// latency does) and the windowed p99 of observed planning latency
// against the configured target (the trailing confirmation). Latency
// alone never sheds — a slow-but-keeping-up server degrades quality
// instead — so tier 3 is reachable only through a saturated queue.
//
// Escalation is immediate; de-escalation steps down one tier at a time
// after pressure has stayed below the current tier for a hold period.
// The asymmetry is the hysteresis: a borderline server settles one tier
// above its steady state instead of flapping across the boundary on
// every scrape.
const (
	tierNormal  = 0
	tierTighten = 1
	tierGreedy  = 2
	tierShed    = 3
	numTiers    = 4
)

// Queue-depth pressure thresholds, as fractions of queue capacity.
const (
	queueTightenFrac = 0.50
	queueGreedyFrac  = 0.75
	queueShedFrac    = 0.95
)

// OverloadConfig enables and tunes the degradation ladder (see the tier
// table above). The zero value of each field takes its default;
// a nil *OverloadConfig in Config disables the ladder entirely.
type OverloadConfig struct {
	// TargetP99 is the planning-latency SLO the ladder defends: the
	// windowed p99 crossing it is one pressure level, crossing twice it
	// is two (capped at tier 2 — latency never sheds). Zero disables
	// the latency signal, leaving queue depth as the only driver.
	TargetP99 time.Duration
	// Window is the sliding window over which the p99 is computed.
	// Default 10s.
	Window time.Duration
	// Hold is how long raw pressure must stay below the current tier
	// before the ladder de-escalates one step. Default 5s.
	Hold time.Duration
	// DegradedBudget is the plan budget imposed at tier 1 and above on
	// requests that did not carry a tighter one, feeding the planner's
	// budget router. Default 50ms.
	DegradedBudget time.Duration
}

func (c *OverloadConfig) withDefaults() OverloadConfig {
	out := *c
	if out.Window <= 0 {
		out.Window = 10 * time.Second
	}
	if out.Hold <= 0 {
		out.Hold = 5 * time.Second
	}
	if out.DegradedBudget <= 0 {
		out.DegradedBudget = 50 * time.Millisecond
	}
	return out
}

// ladder is the tier state machine. The clock is injectable so the
// hysteresis tests can walk simulated time through escalation, hold,
// and recovery deterministically.
type ladder struct {
	cfg  OverloadConfig
	pool *pool
	now  func() time.Time

	mu        sync.Mutex
	tier      int
	lastAbove time.Time // last instant raw pressure was ≥ the current tier
	win       *latencyWindow

	transitions [numTiers]atomic.Uint64 //dp:atomic entries into each tier
	sheds       atomic.Uint64           //dp:atomic requests rejected at tier 3
}

func newLadder(cfg OverloadConfig, p *pool, now func() time.Time) *ladder {
	if now == nil {
		now = time.Now
	}
	l := &ladder{cfg: cfg.withDefaults(), pool: p, now: now}
	l.win = newLatencyWindow(l.cfg.Window)
	l.lastAbove = now()
	return l
}

// observe feeds one successful planning request's wall time into the
// latency window.
func (l *ladder) observe(d time.Duration) {
	l.mu.Lock()
	l.win.observe(d, l.now())
	l.mu.Unlock()
}

// rawTier computes the instantaneous pressure from both signals.
func (l *ladder) rawTier(now time.Time) int {
	tier := tierNormal
	if qcap := float64(l.pool.queueCap); qcap > 0 {
		queued, _ := l.pool.gauges()
		frac := float64(queued) / qcap
		switch {
		case frac >= queueShedFrac:
			tier = tierShed
		case frac >= queueGreedyFrac:
			tier = tierGreedy
		case frac >= queueTightenFrac:
			tier = tierTighten
		}
	}
	if l.cfg.TargetP99 > 0 {
		if p99, ok := l.win.p99(now); ok {
			lat := tierNormal
			switch {
			case p99 >= 2*l.cfg.TargetP99:
				lat = tierGreedy
			case p99 >= l.cfg.TargetP99:
				lat = tierTighten
			}
			if lat > tier {
				tier = lat
			}
		}
	}
	return tier
}

// current evaluates the ladder and returns the tier a request arriving
// now must plan under.
func (l *ladder) current() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	raw := l.rawTier(now)
	switch {
	case raw > l.tier:
		// Escalate immediately — overload compounds while a ladder
		// deliberates.
		l.tier = raw
		l.lastAbove = now
		l.transitions[raw].Add(1)
	case raw == l.tier:
		l.lastAbove = now
	default:
		// Below the current tier: step down one tier per elapsed hold
		// period, never straight to the raw value, so recovery is as
		// deliberate as escalation was instant.
		if now.Sub(l.lastAbove) >= l.cfg.Hold && l.tier > tierNormal {
			l.tier--
			l.lastAbove = now
			l.transitions[l.tier].Add(1)
		}
	}
	return l.tier
}

// latencyWindow is a rotating-slot sliding histogram: the window is
// split into slots, observations land in the newest slot, and slots
// older than the window are zeroed as time advances. p99 is then the
// interpolated quantile over the live slots. All methods are called
// under the ladder's lock.
type latencyWindow struct {
	bounds   []float64
	slots    [][]uint64
	counts   []uint64
	slotDur  time.Duration
	cur      int
	curStart time.Time
	started  bool
}

const windowSlots = 8

func newLatencyWindow(window time.Duration) *latencyWindow {
	w := &latencyWindow{
		bounds:  obs.DefaultBounds,
		slots:   make([][]uint64, windowSlots),
		counts:  make([]uint64, windowSlots),
		slotDur: window / windowSlots,
	}
	for i := range w.slots {
		w.slots[i] = make([]uint64, len(w.bounds)+1) // +1: overflow bucket
	}
	return w
}

// rotate advances the current slot pointer to now, zeroing every slot
// that expired in between.
func (w *latencyWindow) rotate(now time.Time) {
	if !w.started {
		w.started = true
		w.curStart = now
		return
	}
	steps := int(now.Sub(w.curStart) / w.slotDur)
	if steps <= 0 {
		return
	}
	if steps > windowSlots {
		steps = windowSlots
	}
	for i := 0; i < steps; i++ {
		w.cur = (w.cur + 1) % windowSlots
		for j := range w.slots[w.cur] {
			w.slots[w.cur][j] = 0
		}
		w.counts[w.cur] = 0
	}
	w.curStart = w.curStart.Add(now.Sub(w.curStart) / w.slotDur * w.slotDur)
}

func (w *latencyWindow) observe(d time.Duration, now time.Time) {
	w.rotate(now)
	w.slots[w.cur][obs.BucketIndex(w.bounds, d.Seconds())]++
	w.counts[w.cur]++
}

// p99 interpolates the 99th percentile over the live window; ok is
// false when the window holds no observations. Overflow mass reports
// the last bound — a lower bound on the truth, which for an overload
// detector errs toward engaging.
func (w *latencyWindow) p99(now time.Time) (time.Duration, bool) {
	w.rotate(now)
	var count uint64
	for _, c := range w.counts {
		count += c
	}
	if count == 0 {
		return 0, false
	}
	merged := make([]uint64, len(w.bounds)+1)
	for _, slot := range w.slots {
		for j, v := range slot {
			merged[j] += v
		}
	}
	return time.Duration(obs.Quantile(w.bounds, merged, count, 0.99) * float64(time.Second)), true
}
