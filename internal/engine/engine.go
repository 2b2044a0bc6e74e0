// Package engine turns many concurrent callers into the batches that
// dynamic parallel tree contraction is built for.
//
// Reif & Tate's structure (internal/core) processes a *batch* U of mixed
// requests — add or delete leaves, modify labels, query values — in
// O(log(|U|·log n)) expected parallel time, but it is single-writer: the
// seed repo left batch assembly to a lone caller. This package supplies the
// missing concurrency seam, in the style of modern batch-dynamic tree
// systems (Acar et al. 2020; Ikram et al. 2025) whose throughput comes
// precisely from coalescing concurrent operations into batches before they
// hit the structure:
//
//   - Arbitrarily many goroutines submit Grow / Collapse / SetLeaf /
//     SetOp / Value / Root / Barrier requests and receive per-request
//     Futures.
//   - A single executor goroutine takes whatever is queued as one flush
//     (up to the queue capacity) the moment it goes idle, so batching adds
//     no latency when traffic is light and batches grow by themselves as
//     the executor saturates.
//   - Each flush is partitioned (partition.go) into waves of
//     node-disjoint requests, and every wave executes as at most one call
//     to each of the core batch entry points (GrowBatch, CollapseBatch,
//     SetLeaves, SetOps, Values) — the paper's §1.4 batch-request model.
//
// Every request is linearizable: it takes effect atomically between submit
// and future resolution. Requests touching a common node additionally
// execute in submission order.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"dyntc/internal/faults"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// Host is the single-writer structure the engine serializes access to.
// dyntc.Expr satisfies it directly.
type Host interface {
	Tree() *TreeT
	GrowBatch(ops []GrowOp) [][2]*NodeT
	CollapseBatch(ops []CollapseOp)
	SetLeaves(leaves []*NodeT, values []int64)
	SetOps(nodes []*NodeT, ops []OpT)
	Values(nodes []*NodeT) []int64
	Root() int64
}

// Options configures an Engine. The zero value gives sane defaults.
type Options struct {
	// Queue is the submit queue capacity; submits block (backpressure)
	// once it fills (default 4096). It also bounds one flush.
	Queue int
	// Shed switches the full-queue policy from blocking to load shedding:
	// a submit that finds the queue at capacity fails its future
	// immediately with ErrOverloaded instead of blocking the caller.
	// Servers translate that into 429 + Retry-After; library callers that
	// want backpressure leave it false. Barriers are exempt: snapshots,
	// log compaction and follower bootstrap ride barriers and must not
	// starve under exactly the load shedding exists to survive — they
	// block on a full queue like on an unshedded engine.
	Shed bool
	// WaveTap, when set, is called after every executed wave that mutated
	// the tree, with the wave's sealed change record (dense-ID ops,
	// assigned grow IDs, post-wave root, checksum). This is the
	// replication seam: internal/replog logs and ships these. The tap runs
	// on the executor goroutine, serialized with the engine's waves and
	// before any of the wave's mutating requests is acknowledged — it must
	// be fast and must not call back into the engine. See also
	// Engine.SetWaveTap.
	WaveTap WaveTap
	// Obs, when set, is the process's observability hub. The engine
	// registers its histogram families (flush, coalesce wait, per-stage,
	// heal records) on the hub's registry, times every flush, samples
	// flushes into the hub's span log — at the hub's period, while its
	// anomaly boost is active, and whenever a flush carries an explicitly
	// traced request — and hands every flush record to the hub (hot-spot
	// sketches, flush anomaly detector, slow-wave log) on the executor.
	// Sheds are reported to the hub on the shedding submitter, and shed
	// bursts (at most one event per second per engine) are journaled.
	// Nil costs one bool check per flush.
	Obs *obs.Hub
	// Faults, when set, is the deterministic fault-injection schedule:
	// site "engine.wave" is checked once per executed wave on the
	// executor. An injected error panics the wave, which the engine's
	// own recovery turns into a poisoned engine — the library-level
	// stand-in for a leader crash mid-traffic; injected latency
	// simulates a stalled flush. nil (production) costs one pointer
	// check per wave.
	Faults *faults.Injector
}

// WaveTap receives the change record of one executed mutating wave.
type WaveTap func(replog.Wave)

func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 4096
	}
	return o
}

// Engine is a concurrent request-coalescing front end over one Host. All
// exported methods are safe for concurrent use.
type Engine struct {
	host Host
	opts Options

	ch chan *Future

	mu       sync.RWMutex // guards closed against concurrent submits
	closed   bool
	poisoned bool

	stats statsRec

	// appliedSeq numbers the mutating waves this engine has executed; it
	// is the tree state's position in the wave change-log. Restored trees
	// seed it with their snapshot's sequence, and replicas advance it as
	// they replay waves (SetAppliedSeq).
	appliedSeq atomic.Uint64
	// epoch is the leadership term stamped into every sealed wave: 1 for
	// a fresh engine, the host's term when the host reports one (a tree
	// restored from a snapshot), advanced by SetEpoch at promotion.
	epoch atomic.Uint64
	// tap is the active wave tap (nil = none); swappable at runtime so a
	// change log can attach to an already-serving engine.
	tap atomic.Pointer[WaveTap]

	// sc is the executor's reusable flush/partition state (touched only by
	// the executor goroutine).
	sc scratch

	// healer is the host's optional heal-reporting capability, cached
	// once (dyntc.Expr implements it).
	healer healReporter

	// timing enables the per-flush clock reads (immutable after New): set
	// when Obs is configured, whose histograms inst holds. traceID is the
	// tree id stamped into flush records (SetTraceID); flushSeq
	// counts flushes for span sampling (executor only).
	timing   bool
	inst     *instruments
	traceID  atomic.Uint64
	flushSeq uint64

	// shedEventAt rate-limits shed-burst journal events (one per second
	// per engine; written by shedding submitters via CAS).
	shedEventAt atomic.Int64

	done chan struct{}
}

// healReporter is the optional host capability exposing the contraction
// core's per-wave heal cost (records touched, re-simulation fallbacks),
// folded into Stats, the flush records and the heal histograms.
type healReporter interface{ LastHeal() HealStats }

// New starts an engine (and its executor goroutine) over host.
func New(host Host, opts Options) *Engine {
	e := &Engine{
		host: host,
		opts: opts.withDefaults(),
		inst: newInstruments(opts.Obs),
		done: make(chan struct{}),
	}
	e.ch = make(chan *Future, e.opts.Queue)
	if e.opts.WaveTap != nil {
		e.tap.Store(&e.opts.WaveTap)
	}
	e.healer, _ = host.(healReporter)
	// A host restored from a snapshot carries its leadership term; seed
	// the wave stamp from it (same capability pattern as healer).
	if ep, ok := host.(interface{ Epoch() uint64 }); ok {
		e.epoch.Store(ep.Epoch())
	} else {
		e.epoch.Store(1)
	}
	e.timing = e.opts.Obs != nil
	go e.run()
	return e
}

// SetWaveTap installs (or, with nil, removes) the wave tap. The tap takes
// effect from the next executed wave; waves already executed are not
// replayed into it, so attach the tap before traffic (or right after
// restoring a snapshot) for a gapless log.
func (e *Engine) SetWaveTap(tap WaveTap) {
	if tap == nil {
		e.tap.Store(nil)
		return
	}
	e.tap.Store(&tap)
}

// Tapped reports whether a wave tap is currently attached: the engine's
// mutating waves feed a change log, so state changes that bypass the wave
// stream (mutations inside a Barrier) would silently diverge replicas.
func (e *Engine) Tapped() bool { return e.tap.Load() != nil }

// AppliedSeq returns the sequence number of the last mutating wave the
// engine executed (the tree state's position in the wave change-log).
func (e *Engine) AppliedSeq() uint64 { return e.appliedSeq.Load() }

// SetAppliedSeq seeds the applied-wave sequence, for an engine started
// over a host restored from a snapshot taken at that sequence. Call it
// before the engine receives traffic.
func (e *Engine) SetAppliedSeq(seq uint64) { e.appliedSeq.Store(seq) }

// Epoch returns the leadership term stamped into sealed waves.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// SetEpoch advances the wave-stamp epoch (it never moves backwards).
// Startup recovery uses it after replaying a WAL that crossed a
// failover; promotion normally flows the bumped epoch in via the
// restored host instead.
func (e *Engine) SetEpoch(epoch uint64) {
	for {
		cur := e.epoch.Load()
		if epoch <= cur || e.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// SetHost swaps the host the engine serves. Call it only from inside a
// Barrier callback, on the executor: requests ahead of the barrier ran
// against the old host and requests behind it run against the new one.
// Reseeding the applied sequence and epoch is the caller's job.
func (e *Engine) SetHost(host Host) {
	e.host = host
	e.healer, _ = host.(healReporter)
}

// Close stops accepting requests, waits for the executor to drain every
// pending request, and returns. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
	e.mu.Unlock()
	<-e.done
}

// submit enqueues f, failing it immediately when the engine is closed —
// or, on a shedding engine, when the queue is at capacity.
func (e *Engine) submit(f *Future) *Future {
	if e.timing {
		f.at = time.Now()
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.stats.drop(1)
		f.resolve(0, [2]*NodeT{}, ErrClosed)
		return f
	}
	// The send happens under the read lock so Close cannot close e.ch
	// between the check and the send; the executor keeps draining, so
	// blocked senders always complete.
	if e.opts.Shed && f.kind != kBarrier {
		select {
		case e.ch <- f:
			e.mu.RUnlock()
		default:
			e.mu.RUnlock()
			e.stats.shed(1)
			if h := e.opts.Obs; h != nil {
				h.Shed(e.traceID.Load(), 1)
				e.noteShedBurst(h.Events())
			}
			f.resolve(0, [2]*NodeT{}, ErrOverloaded)
		}
		return f
	}
	e.ch <- f
	e.mu.RUnlock()
	return f
}

// GrowCtx submits a leaf expansion: ref becomes an op node with two fresh
// leaves holding (leftVal, rightVal). Future.Pair returns the new leaves.
//
// Every submit carries a distributed-trace context: the flush that
// executes the request adopts sc's trace (and is force-sampled into the
// span log). A zero SpanContext submits untraced, at no cost.
func (e *Engine) GrowCtx(sc obs.SpanContext, ref NodeRef, op OpT, leftVal, rightVal int64) *Future {
	f := newFuture(kGrow)
	f.ref, f.op, f.a, f.b, f.span = ref, op, leftVal, rightVal, sc
	return e.submit(f)
}

// CollapseCtx submits a leaf-pair deletion: ref's two leaf children are
// removed and ref becomes a leaf holding newValue.
func (e *Engine) CollapseCtx(sc obs.SpanContext, ref NodeRef, newValue int64) *Future {
	f := newFuture(kCollapse)
	f.ref, f.a, f.span = ref, newValue, sc
	return e.submit(f)
}

// SetLeafCtx submits a leaf value update.
func (e *Engine) SetLeafCtx(sc obs.SpanContext, ref NodeRef, value int64) *Future {
	f := newFuture(kSetLeaf)
	f.ref, f.a, f.span = ref, value, sc
	return e.submit(f)
}

// SetOpCtx submits an internal-operation update.
func (e *Engine) SetOpCtx(sc obs.SpanContext, ref NodeRef, op OpT) *Future {
	f := newFuture(kSetOp)
	f.ref, f.op, f.span = ref, op, sc
	return e.submit(f)
}

// ValueCtx submits a subexpression value query. Future.Value returns it.
func (e *Engine) ValueCtx(sc obs.SpanContext, ref NodeRef) *Future {
	f := newFuture(kValue)
	f.ref, f.span = ref, sc
	return e.submit(f)
}

// RootCtx submits a root value query. Future.Value returns it.
func (e *Engine) RootCtx(sc obs.SpanContext) *Future {
	f := newFuture(kRoot)
	f.span = sc
	return e.submit(f)
}

// Barrier submits fn for exclusive, linearized execution on the executor
// goroutine: fn sees a quiescent host and may use any of its methods. Tour
// queries and node-ID resolution ride on this.
func (e *Engine) Barrier(fn func(Host)) *Future {
	f := newFuture(kBarrier)
	f.fn = fn
	return e.submit(f)
}

// run is the executor: the only goroutine that drains the queue and
// touches e.host.
func (e *Engine) run() {
	defer close(e.done)
	for {
		first, ok := <-e.ch
		if !ok {
			return
		}
		e.executeFlush(e.collect(first))
	}
}

// noteShedBurst journals that the engine is shedding, rate-limited to
// one event per second per engine: individual rejections are counted by
// stats and the hub's shed sketch; the journal records that a burst is
// happening at all, with the running total for scale.
func (e *Engine) noteShedBurst(j *obs.Journal) {
	now := time.Now().UnixNano()
	last := e.shedEventAt.Load()
	if now-last < int64(time.Second) || !e.shedEventAt.CompareAndSwap(last, now) {
		return
	}
	j.EmitTree(obs.EvShedBurst, e.traceID.Load(),
		"submit queue full, shedding requests",
		map[string]any{"shed_total": e.stats.shedded.Load(), "queue_cap": e.opts.Queue})
}

// collect assembles one flush: first plus everything already queued, up
// to the queue capacity, so the flush is whatever batch is pending when
// the executor goes idle. The returned slice is the executor's reusable
// flush buffer, valid until the next collect.
func (e *Engine) collect(first *Future) []*Future {
	flush := append(e.sc.flush[:0], first)
	defer func() { e.sc.flush = flush }()
	for len(flush) < e.opts.Queue {
		select {
		case f, ok := <-e.ch:
			if !ok {
				return flush
			}
			flush = append(flush, f)
		default:
			return flush
		}
	}
	return flush
}
