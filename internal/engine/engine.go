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
//   - Arbitrarily many goroutines submit requests — each an ordered list
//     of replog.Op, the op type the wave log also speaks — or barriers,
//     and receive one Future per request.
//   - A single executor goroutine takes whatever is queued as one flush
//     (up to the queue capacity in ops) the moment it goes idle, so
//     batching adds no latency when traffic is light and batches grow by
//     themselves as the executor saturates.
//   - A flush is the concatenation of its requests' ops, and it runs as
//     waves (partition.go): a wave is the longest conflict-free prefix of
//     the ops not yet run, and every wave executes as at most one call to
//     each of the core batch entry points (GrowBatch, CollapseBatch,
//     SetLeaves, SetOps, Values) — the paper's §1.4 batch-request model.
//
// Every request takes effect between submit and future resolution, its
// ops in submission order: within a flush an op sees every op submitted
// before it, in its own request or an earlier one.
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
	// Queue is the submit queue capacity, in requests; submits block
	// (backpressure) once it fills (default 4096). It also bounds one
	// flush, in ops: a larger request runs as a flush of its own.
	Queue int
	// Shed switches the full-queue policy from blocking to load shedding:
	// a submit that finds the queue full fails its future immediately
	// with ErrOverloaded instead of blocking the caller. A shedding queue
	// is full at Queue ops: a request is shed when the ops already queued
	// plus its own would exceed Queue (a larger request is admitted only
	// into an empty queue), or when Queue requests are queued.
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
	// flushes into the hub's span log — at the hub's period, and whenever
	// a flush carries an explicitly traced request — and hands every flush
	// record to the hub (slow-wave log) on the executor. Shed bursts (at
	// most one event per second per engine) are journaled on the shedding
	// submitter. Nil costs one bool check per flush.
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
	// tap points at the active wave tap (a nil func = none); swappable at
	// runtime so a change log can attach to an already-serving engine.
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
	// queuedOps counts the ops queued (a barrier counts one): submit
	// adds, collect takes away.
	queuedOps atomic.Int64

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
	e.tap.Store(&e.opts.WaveTap)
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
func (e *Engine) SetWaveTap(tap WaveTap) { e.tap.Store(&tap) }

// Tap returns the attached wave tap, nil if none. A tapped engine's
// mutating waves feed a change log, so state changes that bypass the wave
// stream (mutations inside a Barrier) would silently diverge replicas,
// and a barrier that applies a shipped wave hands it to the tap itself.
func (e *Engine) Tap() WaveTap { return *e.tap.Load() }

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
		e.stats.drop(f.size())
		f.resolve(ErrClosed)
		return f
	}
	// The send happens under the read lock so Close cannot close e.ch
	// between the check and the send; the executor keeps draining, so
	// blocked senders always complete.
	size := int64(f.size())
	queued := e.queuedOps.Add(size)
	if e.opts.Shed && f.fn == nil {
		admit := queued == size || queued <= int64(e.opts.Queue)
		if admit {
			select {
			case e.ch <- f:
			default:
				admit = false
			}
		}
		e.mu.RUnlock()
		if !admit {
			e.queuedOps.Add(-size)
			e.stats.shed(int(size))
			if h := e.opts.Obs; h != nil {
				e.noteShedBurst(h.Events())
			}
			f.resolve(ErrOverloaded)
		}
		return f
	}
	e.ch <- f
	e.mu.RUnlock()
	return f
}

// Apply submits ops as one request and returns its Future, which resolves
// once every op has executed; Future.Results reports each op's outcome in
// order. Apply copies ops, so the caller may reuse the slice. A request
// without ops resolves at once.
//
// Within its flush, an op sees every op submitted before it: a wave is
// the longest conflict-free prefix of the flush's ops, and the rest runs
// in later waves (partition.go). Reads run at the end of their wave, so a
// read also sees the wave's later writes to other nodes.
//
// Every submit carries a distributed-trace context: the flush that
// executes the request adopts sc's trace (and is force-sampled into the
// span log). A zero SpanContext submits untraced, at no cost.
func (e *Engine) Apply(sc obs.SpanContext, ops ...replog.Op) *Future {
	f := newFuture(ops)
	if len(ops) == 0 {
		f.resolve(nil)
		return f
	}
	f.span = sc
	return e.submit(f)
}

// ApplyTo submits op as a one-op, untraced request addressed by the live
// handle n rather than by ID: op.Node is set to n.ID, and the op fails
// with ErrDeadNode unless n is still that node of this tree.
func (e *Engine) ApplyTo(n *NodeT, op replog.Op) *Future {
	op.Node = -1 // a nil handle addresses no node
	if n != nil {
		op.Node = n.ID
	}
	f := newFuture([]replog.Op{op})
	f.pin = n
	return e.submit(f)
}

// Barrier submits fn for exclusive, linearized execution on the executor
// goroutine: fn sees a quiescent host and may use any of its methods. Tour
// queries and node-ID resolution ride on this.
func (e *Engine) Barrier(fn func(Host)) *Future {
	f := newFuture(nil)
	f.fn = fn
	return e.submit(f)
}

// run is the executor: the only goroutine that drains the queue and
// touches e.host.
func (e *Engine) run() {
	defer close(e.done)
	var next *Future
	for {
		if next == nil {
			var ok bool
			if next, ok = <-e.ch; !ok {
				return
			}
		}
		flush, ops, rest := e.collect(next)
		e.executeFlush(flush, ops)
		next = rest
	}
}

// noteShedBurst journals that the engine is shedding, rate-limited to
// one event per second per engine: individual rejections are counted by
// stats (dyntc_engine_shed_total); the journal records that a burst is
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

// collect assembles one flush: first plus the requests queued behind it,
// while their ops fit in the queue capacity, so the flush is whatever
// batch is pending when the executor goes idle. A request that does not
// fit is returned as next, to open the following flush; a request larger
// than the capacity runs alone. The returned slice is the executor's
// reusable flush buffer, valid until the next collect.
func (e *Engine) collect(first *Future) (flush []*Future, ops int, next *Future) {
	flush = append(e.sc.flush[:0], first)
	defer func() { e.sc.flush = flush; e.queuedOps.Add(-int64(ops)) }()
	ops = first.size()
	for ops < e.opts.Queue {
		select {
		case f, ok := <-e.ch:
			if !ok {
				return flush, ops, nil
			}
			if ops+f.size() > e.opts.Queue {
				return flush, ops, f
			}
			flush = append(flush, f)
			ops += f.size()
		default:
			return flush, ops, nil
		}
	}
	return flush, ops, nil
}
