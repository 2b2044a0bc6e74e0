// Anomaly-triggered flight recorder. Streaming detectors watch the
// latency signals the rest of the observability stack already produces
// (engine flush, WAL append, query join, replication-lag stages); when a
// sample is anomalous against its own history — an EWMA±kσ cheap gate
// confirmed by a median+k·MAD robust test over a recent window — the
// recorder journals an anomaly event carrying a stats snapshot and
// boosts trace sampling for a burst, so the slow period is densely
// traced while it is still happening. Sampling decays back by deadline:
// TraceBoost is one atomic word, and checking it costs the unsampled hot
// path a single load and compare.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceBoost is the flight recorder's sampling override: while active,
// engines treat every flush as span-sampled. The zero value is inactive.
type TraceBoost struct {
	deadline atomic.Int64 // UnixNano; 0 or past = inactive
}

// Trigger activates (or extends) the boost for d from now.
func (b *TraceBoost) Trigger(d time.Duration) {
	if b == nil {
		return
	}
	until := time.Now().Add(d).UnixNano()
	for {
		cur := b.deadline.Load()
		if cur >= until || b.deadline.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Active reports whether the boost covers the given UnixNano instant:
// one atomic load plus a compare, cheap enough for the unsampled flush
// path. Nil-safe.
func (b *TraceBoost) Active(nowNano int64) bool {
	return b != nil && nowNano < b.deadline.Load()
}

// Deadline returns the boost's current expiry (UnixNano, 0 = never set).
func (b *TraceBoost) Deadline() int64 {
	if b == nil {
		return 0
	}
	return b.deadline.Load()
}

// AnomalyConfig tunes the detectors. The zero value selects the
// defaults noted per field.
type AnomalyConfig struct {
	// Alpha is the EWMA weight of each new sample (default 0.05).
	Alpha float64
	// GateK is the cheap gate: a sample must exceed ewma + GateK·σ
	// (EW standard deviation) to reach the robust test (default 4).
	GateK float64
	// MadK is the robust confirm: the sample must also exceed
	// median + MadK·(1.4826·MAD) over the recent window (default 5).
	MadK float64
	// Warmup is the minimum samples a signal needs before it may trip
	// (default 64).
	Warmup int
	// Window is the robust test's sample window per signal (default 64).
	Window int
	// MinNS is an absolute floor: samples at or below it never trip,
	// keeping sub-millisecond jitter from reading as incidents
	// (default 1ms).
	MinNS float64
	// Cooldown is the per-signal holdoff between trips (default 10s).
	Cooldown time.Duration
	// Boost is how long each trip boosts trace sampling (default 3s).
	Boost time.Duration
}

func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.05
	}
	if c.GateK <= 0 {
		c.GateK = 4
	}
	if c.MadK <= 0 {
		c.MadK = 5
	}
	if c.Warmup <= 0 {
		c.Warmup = 64
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MinNS <= 0 {
		c.MinNS = float64(time.Millisecond)
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.Boost <= 0 {
		c.Boost = 3 * time.Second
	}
	return c
}

// detector is one signal's streaming state. All fields are guarded by
// the Recorder's mutex.
type detector struct {
	count    int
	ewma     float64
	ewmaVar  float64
	window   []float64 // ring of recent samples
	wi       int
	wn       int
	scratch  []float64 // sort buffer for the robust test
	lastTrip int64     // UnixNano of the last trip (cooldown)
}

// Recorder owns the per-signal detectors and the trip side effects:
// journal an anomaly event with a snapshot, boost tracing, and expose
// Active() — the boost's own clock — for health probes.
type Recorder struct {
	cfg     AnomalyConfig
	journal *Journal
	boost   *TraceBoost

	mu        sync.Mutex
	detectors map[string]*detector
	snapshot  func() map[string]any

	trips atomic.Uint64
}

// NewRecorder creates a recorder journaling trips into j and boosting
// sampling through b (either may be nil).
func NewRecorder(cfg AnomalyConfig, j *Journal, b *TraceBoost) *Recorder {
	return &Recorder{
		cfg:       cfg.withDefaults(),
		journal:   j,
		boost:     b,
		detectors: make(map[string]*detector),
	}
}

// SetSnapshot installs the closure whose result rides along in every
// anomaly event — typically engine/replication stats gathered by
// the server, which can see all the layers at once.
func (r *Recorder) SetSnapshot(fn func() map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snapshot = fn
	r.mu.Unlock()
}

// Active reports whether any signal tripped within its boost window —
// the "anomaly_active" health bit. A trip arms the boost for exactly
// that window, so the boost's deadline is the one clock both read.
func (r *Recorder) Active() bool {
	return r != nil && r.boost.Active(time.Now().UnixNano())
}

// Trips returns the total number of detector trips.
func (r *Recorder) Trips() uint64 {
	if r == nil {
		return 0
	}
	return r.trips.Load()
}

// Observe feeds one latency sample (nanoseconds) into the signal's
// detector, tripping the flight recorder when the sample is anomalous.
// Nil-safe and cheap in the steady state: one mutex, constant float
// work; the sort-based robust test runs only when the cheap gate passes.
func (r *Recorder) Observe(signal string, ns int64) {
	if r == nil || ns < 0 {
		return
	}
	v := float64(ns)
	now := time.Now().UnixNano()

	r.mu.Lock()
	d := r.detectors[signal]
	if d == nil {
		d = &detector{
			window:  make([]float64, r.cfg.Window),
			scratch: make([]float64, 0, r.cfg.Window),
		}
		r.detectors[signal] = d
	}

	tripped := false
	var baseline, median, mad float64
	if d.count >= r.cfg.Warmup && v > r.cfg.MinNS &&
		now-d.lastTrip >= int64(r.cfg.Cooldown) {
		sigma := 0.0
		if d.ewmaVar > 0 {
			sigma = math.Sqrt(d.ewmaVar)
		}
		if v > d.ewma+r.cfg.GateK*sigma {
			// Cheap gate passed: confirm against the robust window, which
			// a few earlier outliers cannot drag the way the EWMA can.
			median, mad = d.robust()
			if v > median+r.cfg.MadK*1.4826*mad {
				tripped = true
				baseline = d.ewma
				d.lastTrip = now
			}
		}
	}

	// Update the stream state after gating, so a spike is judged against
	// the history that excludes it.
	d.window[d.wi] = v
	d.wi = (d.wi + 1) % len(d.window)
	if d.wn < len(d.window) {
		d.wn++
	}
	if d.count == 0 {
		d.ewma = v
	} else {
		diff := v - d.ewma
		incr := r.cfg.Alpha * diff
		d.ewma += incr
		d.ewmaVar = (1 - r.cfg.Alpha) * (d.ewmaVar + incr*diff)
	}
	d.count++
	snap := r.snapshot
	r.mu.Unlock()

	if !tripped {
		return
	}
	r.trips.Add(1)
	boostUntil := now + int64(r.cfg.Boost)
	r.boost.Trigger(r.cfg.Boost)
	fields := map[string]any{
		"signal":      signal,
		"value_ms":    v / 1e6,
		"baseline_ms": baseline / 1e6,
		"median_ms":   median / 1e6,
		"mad_ms":      mad / 1e6,
		"boost_until": boostUntil,
	}
	if snap != nil {
		fields["snapshot"] = snap()
	}
	r.journal.Emit(EvAnomaly+"."+signal,
		"latency anomaly: sample far above rolling baseline", fields)
	r.journal.Emit(EvTraceBoost, "trace sampling boosted to every flush",
		map[string]any{"signal": signal, "until": boostUntil})
}

// robust returns the median and MAD of the detector's current window.
func (d *detector) robust() (median, mad float64) {
	d.scratch = append(d.scratch[:0], d.window[:d.wn]...)
	sort.Float64s(d.scratch)
	median = d.scratch[len(d.scratch)/2]
	for i, s := range d.scratch {
		if s > median {
			d.scratch[i] = s - median
		} else {
			d.scratch[i] = median - s
		}
	}
	sort.Float64s(d.scratch)
	mad = d.scratch[len(d.scratch)/2]
	return median, mad
}
