package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dyntc/internal/core"
	"dyntc/internal/replog"
)

// latWindow is the number of recent flush latencies retained for the
// p50/p99 estimates: enough to smooth noise, cheap to sort on Stats().
const latWindow = 256

// statsRec is the executor-side accumulator. Counters are atomics so
// Stats() snapshots from any goroutine without touching the executor; the
// flush-latency window is a small mutex-guarded ring (one executor write
// per flush, rare reader).
type statsRec struct {
	requests    atomic.Uint64
	flushes     atomic.Uint64
	waves       atomic.Uint64
	errors      atomic.Uint64
	dropped     atomic.Uint64
	shedded     atomic.Uint64
	maxFlush    atomic.Int64
	kinds       [replog.OpRoot + 1]atomic.Uint64 // executed ops by kind; kBarrier counts barriers
	healRecords atomic.Uint64
	resims      atomic.Uint64
	resimsBy    [len(core.ResimReasons)]atomic.Uint64 // same order

	latMu sync.Mutex
	lat   [latWindow]int64 // recent flush durations, nanoseconds
	latN  int              // total recorded (ring position = latN % latWindow)
}

func (s *statsRec) flush(n int) {
	s.requests.Add(uint64(n))
	s.flushes.Add(1)
	for {
		cur := s.maxFlush.Load()
		if int64(n) <= cur || s.maxFlush.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

func (s *statsRec) wave() { s.waves.Add(1) }
func (s *statsRec) fail() { s.errors.Add(1) }

// drop counts ops discarded without execution (engine closed or
// poisoned): the load-shedding visibility counter.
func (s *statsRec) drop(n int) { s.dropped.Add(uint64(n)) }

// shed counts ops rejected at submit because the queue was full
// (Options.Shed engines): the 429 visibility counter.
func (s *statsRec) shed(n int) { s.shedded.Add(uint64(n)) }

// flushDone records one flush's end-to-end executor latency.
func (s *statsRec) flushDone(d time.Duration) {
	s.latMu.Lock()
	s.lat[s.latN%latWindow] = int64(d)
	s.latN++
	s.latMu.Unlock()
}

// window appends a copy of the retained flush-latency samples
// (nanoseconds) to buf — the seam TotalStats merges across engines so
// aggregate percentiles describe the combined distribution, not the
// worst engine.
func (s *statsRec) window(buf []int64) []int64 {
	s.latMu.Lock()
	buf = append(buf, s.lat[:min(s.latN, latWindow)]...)
	s.latMu.Unlock()
	return buf
}

// percentilesUS returns the p50/p99 of a set of nanosecond latencies, in
// microseconds (0, 0 when empty). Sorts buf in place.
func percentilesUS(buf []int64) (p50, p99 float64) {
	n := len(buf)
	if n == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(n-1))
		return float64(buf[i]) / 1e3
	}
	return pick(0.50), pick(0.99)
}

// kBarrier is the stats slot of barriers: the one kind no op carries.
const kBarrier replog.OpKind = 0

// done counts n executed ops of kind k (or n barriers, for kBarrier).
func (s *statsRec) done(k replog.OpKind, n int) { s.kinds[k].Add(uint64(n)) }

// byKind returns s's per-kind counters, indexed like statsRec.kinds.
func (s *Stats) byKind() [replog.OpRoot + 1]*uint64 {
	return [...]*uint64{kBarrier: &s.Barriers, replog.OpGrow: &s.Grows, replog.OpCollapse: &s.Collapses,
		replog.OpSetLeaf: &s.SetLeaves, replog.OpSetOp: &s.SetOps, replog.OpValue: &s.Values, replog.OpRoot: &s.Roots}
}

// Stats is a snapshot of an engine's coalescing behaviour.
type Stats struct {
	Requests uint64 `json:"requests"`  // ops (and barriers) that reached the executor
	Flushes  uint64 `json:"flushes"`   // coalesced batches executed
	Waves    uint64 `json:"waves"`     // conflict-free waves executed
	Errors   uint64 `json:"errors"`    // ops failed by validation
	Dropped  uint64 `json:"dropped"`   // ops discarded unexecuted (closed / poisoned)
	Shed     uint64 `json:"shed"`      // ops rejected at submit, queue full (Options.Shed)
	MaxFlush int64  `json:"max_flush"` // largest flush seen, in ops

	// Backpressure visibility: the submit queue's instantaneous depth and
	// capacity, in requests, and the executor's recent flush latency
	// distribution.
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_cap"`
	FlushP50US float64 `json:"flush_p50_us"` // median flush latency, µs
	FlushP99US float64 `json:"flush_p99_us"` // p99 flush latency, µs

	// AppliedSeq is the engine's wave change-log position: the sequence
	// number of the last mutating wave executed. In forest aggregates it
	// sums to the total mutating waves applied across trees.
	AppliedSeq uint64 `json:"applied_seq"`

	Grows     uint64 `json:"grows"`
	Collapses uint64 `json:"collapses"`
	SetLeaves uint64 `json:"set_leaves"`
	SetOps    uint64 `json:"set_ops"`
	Values    uint64 `json:"values"`
	Roots     uint64 `json:"roots"`
	Barriers  uint64 `json:"barriers"`

	// Heal cost of the mutating waves: trace records re-executed in
	// total, and how many waves fell back to a full re-simulation of the
	// contraction instead of change propagation.
	HealRecords   uint64 `json:"heal_records"`
	Resimulations uint64 `json:"resimulations"`
	// ResimReasons splits Resimulations by the core's stated reason
	// (core.ResimReasons); a reason that never occurred is absent.
	ResimReasons map[string]uint64 `json:"resim_reasons,omitempty"`
}

// MeanFlush is the mean executed batch size: ops per flush. Under
// concurrent load this exceeds 1 — the whole point of coalescing.
func (s Stats) MeanFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Flushes)
}

// MeanWave is the mean conflict-free wave input: ops per wave.
func (s Stats) MeanWave() float64 {
	if s.Waves == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Waves)
}

// Add accumulates other into s: counters and queue depths sum.
// Percentiles cannot be merged from two snapshots, so Add keeps the worst
// engine's values — an upper bound, not the combined distribution;
// TotalStats, which can reach the engines' retained latency windows,
// overwrites them with the true combined percentiles.
func (s *Stats) Add(other Stats) {
	s.Requests += other.Requests
	s.Flushes += other.Flushes
	s.Waves += other.Waves
	s.Errors += other.Errors
	s.Dropped += other.Dropped
	s.Shed += other.Shed
	s.QueueDepth += other.QueueDepth
	s.QueueCap += other.QueueCap
	s.AppliedSeq += other.AppliedSeq
	if other.FlushP50US > s.FlushP50US {
		s.FlushP50US = other.FlushP50US
	}
	if other.FlushP99US > s.FlushP99US {
		s.FlushP99US = other.FlushP99US
	}
	if other.MaxFlush > s.MaxFlush {
		s.MaxFlush = other.MaxFlush
	}
	for k, n := range other.byKind() {
		*s.byKind()[k] += *n
	}
	s.HealRecords += other.HealRecords
	s.Resimulations += other.Resimulations
	for reason, n := range other.ResimReasons {
		s.addResims(reason, n)
	}
}

func (s *Stats) addResims(reason string, n uint64) {
	if s.ResimReasons == nil {
		s.ResimReasons = make(map[string]uint64, len(core.ResimReasons))
	}
	s.ResimReasons[reason] += n
}

// Stats returns a point-in-time snapshot.
func (e *Engine) Stats() Stats {
	p50, p99 := percentilesUS(e.stats.window(nil))
	s := Stats{
		Requests:   e.stats.requests.Load(),
		Flushes:    e.stats.flushes.Load(),
		Waves:      e.stats.waves.Load(),
		Errors:     e.stats.errors.Load(),
		Dropped:    e.stats.dropped.Load(),
		Shed:       e.stats.shedded.Load(),
		MaxFlush:   e.stats.maxFlush.Load(),
		QueueDepth: len(e.ch),
		QueueCap:   e.opts.Queue,
		FlushP50US: p50,
		FlushP99US: p99,
		AppliedSeq: e.appliedSeq.Load(),

		HealRecords:   e.stats.healRecords.Load(),
		Resimulations: e.stats.resims.Load(),
	}
	for k, n := range s.byKind() {
		*n = e.stats.kinds[k].Load()
	}
	for i, reason := range core.ResimReasons {
		if n := e.stats.resimsBy[i].Load(); n > 0 {
			s.addResims(reason, n)
		}
	}
	return s
}

// TotalStats aggregates the stats of engines. Flush latency percentiles
// are computed over the union of the engines' retained latency windows —
// the combined distribution — not the max of per-engine percentiles
// Stats.Add alone would report (which overstates the median of a large
// forest by its single worst tree).
func TotalStats(engines []*Engine) Stats {
	var total Stats
	var lat []int64
	for _, e := range engines {
		total.Add(e.Stats())
		lat = e.stats.window(lat)
	}
	total.FlushP50US, total.FlushP99US = percentilesUS(lat)
	return total
}
