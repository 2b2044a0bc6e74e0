// Package pram is a metered simulator for the paper's machine model: a
// synchronous CRCW PRAM with a forking operation (Reif & Tate, SPAA'94,
// §1.3).
//
// Real CRCW PRAMs do not exist, so the library substitutes a
// round-synchronous simulator. Algorithms are expressed as sequences of
// parallel steps. A step executes a body for every active processor index
// and charges the three quantities the paper's theorems are stated in:
//
//   - Steps    — parallel time (one per Step call; the span in rounds),
//   - Work     — total processor-steps (sum of active processors per step),
//   - MaxProcs — the largest number of processors active in any one step.
//
// Steps large enough to go parallel execute on the shared work-stealing
// scheduler (internal/sched): a Machine is a thin façade that submits
// grain-sized chunks of each round to one process-wide pool, so a forest
// of machines shares a fixed worker set instead of spawning a pool per
// tree. Workers() and the grain are per-machine *hints* — they cap how
// many pool workers one machine's round may recruit and where it switches
// to inline execution — not dedicated goroutines. The calling goroutine
// always participates in its own round, so a round makes progress even on
// a saturated pool and nested rounds cannot deadlock.
//
// Metering is purely a function of the Step/Charge sequence: a Machine
// with any worker hint, grain or pool charges exactly the same Steps,
// Work and MaxProcs as Sequential() for the same computation. Only
// wall-clock differs — which is what the experiments report.
//
// Concurrent-write (CRCW) semantics inside a step are expressed with the
// atomic helpers in this package (arbitrary-winner test-and-set, priority
// max-combine) so that pool execution stays race-free.
package pram

import (
	"runtime"
	"sync/atomic"

	"dyntc/internal/sched"
)

// Metrics accumulates the PRAM cost of a computation.
type Metrics struct {
	Steps    int64 // parallel time in rounds
	Work     int64 // total processor-steps
	MaxProcs int64 // maximum processors active in a single round
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Steps += other.Steps
	m.Work += other.Work
	if other.MaxProcs > m.MaxProcs {
		m.MaxProcs = other.MaxProcs
	}
}

// Machine executes metered parallel steps. The zero value is a sequential
// machine; use New to pick the parallelism hint. Machine is not safe for
// concurrent use by multiple goroutines (each logical computation should
// own one Machine), but any number of Machines share one scheduler pool.
type Machine struct {
	workers int
	metrics Metrics
	// grain is the sequential threshold: steps smaller than grain run
	// inline on the calling goroutine to avoid dispatch overhead. It also
	// sets the minimum chunk size (grain/2) for chunk claiming.
	grain int
	// pool is the scheduler the machine submits chunks to; nil selects
	// the process-wide sched.Default() at the first parallel step.
	pool *sched.Pool
}

// defaultGrain is the parallel threshold: below this many processors a
// round is cheaper to run inline than to dispatch.
const defaultGrain = 1024

// New returns a Machine with the given parallelism hint. workers <= 0
// selects GOMAXPROCS. Rounds execute on the shared scheduler pool
// (sched.Default() unless SetPool chooses another); the hint caps how
// many of its workers one round recruits.
func New(workers int) *Machine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Machine{workers: workers, grain: defaultGrain}
}

// NewOnPool returns a Machine that submits its rounds to the given pool
// (useful for dedicated pools in tests and benchmarks; nil means the
// shared default).
func NewOnPool(p *sched.Pool, workers int) *Machine {
	m := New(workers)
	m.pool = p
	return m
}

// Sequential returns a single-worker machine. Metering is identical to a
// parallel machine; only wall-clock execution differs.
func Sequential() *Machine { return &Machine{workers: 1, grain: defaultGrain} }

// Workers returns the machine's parallelism hint.
func (m *Machine) Workers() int {
	if m.workers <= 0 {
		return 1
	}
	return m.workers
}

// SetWorkers reconfigures the parallelism hint (w <= 0 selects
// GOMAXPROCS). Metering is unaffected. Not safe concurrently with Step.
func (m *Machine) SetWorkers(w int) {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	m.workers = w
}

// SetPool directs the machine's rounds to p (nil restores the shared
// default pool). Not safe concurrently with Step.
func (m *Machine) SetPool(p *sched.Pool) { m.pool = p }

// SetGrain sets the sequential threshold: steps with fewer than g
// processors run inline on the calling goroutine. Lower values exercise
// the pool on smaller rounds (more dispatch overhead, more parallelism);
// tests use it to force pool execution. Metering is unaffected. Not safe
// concurrently with Step.
func (m *Machine) SetGrain(g int) {
	if g < 1 {
		g = 1
	}
	m.grain = g
}

// Metrics returns the accumulated cost so far.
func (m *Machine) Metrics() Metrics { return m.metrics }

// Reset clears the accumulated metrics: a Machine is reusable across
// computations.
func (m *Machine) Reset() { m.metrics = Metrics{} }

// Charge adds a round of n processors to the meters without executing
// anything. It is used by algorithms whose per-processor body has already
// been executed inline (for example tiny fixed-size steps).
func (m *Machine) Charge(n int) {
	if n <= 0 {
		return
	}
	m.metrics.Steps++
	m.metrics.Work += int64(n)
	if int64(n) > m.metrics.MaxProcs {
		m.metrics.MaxProcs = int64(n)
	}
}

// ChargeSpan adds s rounds of span with the given total work, modelling a
// phase whose internal structure was executed inline (e.g. a sequential
// walk of length s by one processor per element of a frontier).
func (m *Machine) ChargeSpan(steps, work, procs int64) {
	m.metrics.Steps += steps
	m.metrics.Work += work
	if procs > m.metrics.MaxProcs {
		m.metrics.MaxProcs = procs
	}
}

// Step executes body(i) for every i in [0, n) as one synchronous parallel
// round and charges n processors. Bodies must not assume any ordering
// between indices and must use the CRCW helpers for writes that can race.
// A panic in any body aborts the round (remaining chunks are skipped) and
// re-panics on the calling goroutine; the Machine and the shared pool
// stay usable.
func (m *Machine) Step(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	m.Charge(n)
	if m.workers <= 1 || n < m.grain || n < m.workers*2 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if m.pool == nil {
		m.pool = sched.Default()
	}
	// Chunk for ~4 chunks per recruited worker so uneven bodies
	// load-balance, but never below grain/2 so dispatch stays amortized.
	chunk := n / (m.workers * 4)
	if min := m.grain / 2; chunk < min {
		chunk = min
	}
	if chunk < 1 {
		chunk = 1
	}
	m.pool.ParallelFor(n, chunk, m.workers, body)
}

// TestAndSet implements an arbitrary-winner CRCW write to a flag: it sets
// *flag to 1 and reports whether this call was the one that changed it.
func TestAndSet(flag *int32) bool {
	return atomic.CompareAndSwapInt32(flag, 0, 1)
}

// Clear resets a flag written by TestAndSet.
func Clear(flag *int32) { atomic.StoreInt32(flag, 0) }

// IsSet reports whether the flag is set.
func IsSet(flag *int32) bool { return atomic.LoadInt32(flag) != 0 }

// WriteMax implements a priority-CRCW combining write: *addr becomes
// max(*addr, v).
func WriteMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// WriteMin implements a combining write: *addr becomes min(*addr, v).
func WriteMin(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v >= cur {
			return
		}
		if atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}

// AddInt64 is a combining-sum CRCW write.
func AddInt64(addr *int64, v int64) { atomic.AddInt64(addr, v) }
