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
// A Machine is a cost meter, not a scheduler: Step runs its bodies inline
// on the calling goroutine, in index order, and charges the round to the
// meters. The theorems bound rounds, work and processors, and those are a
// function of the Step/Charge sequence alone, so they read the same
// whatever executes the bodies.
//
// Concurrent-write (CRCW) semantics inside a step are expressed with the
// helpers in this package (arbitrary-winner test-and-set, priority
// max-combine), so a step body states the model's write rule and does not
// depend on the order indices run in.
package pram

import "sync/atomic"

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

// Machine meters parallel steps. The zero value is ready to use. A
// Machine is not safe for concurrent use: each logical computation owns
// one.
type Machine struct {
	metrics Metrics
}

// Sequential returns a new Machine.
func Sequential() *Machine { return &Machine{} }

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
func (m *Machine) Step(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	m.Charge(n)
	for i := 0; i < n; i++ {
		body(i)
	}
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
