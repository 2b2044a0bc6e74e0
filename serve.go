package dyntc

import (
	"errors"
	"fmt"
	"maps"
	"sync"

	"dyntc/internal/engine"
	"dyntc/internal/query"
	"dyntc/internal/replog"
)

// This file is the concurrent face of the package: Expr.Serve wraps an
// Expr in a request-coalescing engine (internal/engine) that makes it safe
// for arbitrarily many goroutines, amortizing concurrent traffic into the
// batch requests of the paper's §1.4; NewForest serves independent
// expression trees on one engine each so unrelated trees proceed fully
// in parallel.

// Engine is a concurrent, linearizable front end over one Expr. All
// methods are safe for concurrent use from any number of goroutines;
// requests submitted while the executor is busy coalesce into batches, so
// throughput grows with concurrency (Theorem 4.2's O(log(|U|·log n))
// batch bound, amortized over |U| concurrent callers).
//
// While an Engine is open, the wrapped Expr must not be used directly —
// route everything through the Engine (Query gives linearized access for
// anything without a dedicated method).
type Engine struct {
	expr  *Expr
	inner *engine.Engine
}

// Future is a pending engine request. Wait/Value/Pair block until the
// request has executed.
type Future = engine.Future

// EngineStats is a snapshot of an engine's coalescing behaviour.
type EngineStats = engine.Stats

// BatchOptions configures an engine. The executor flushes whatever is
// queued the moment it goes idle (no added latency), so a flush is the
// pending batch, at most Queue ops. The zero value gives a
// blocking queue of capacity 4096.
type BatchOptions struct {
	// Queue is the submit queue capacity, in requests; submits block once
	// it fills. It also bounds one flush, in ops.
	Queue int
	// Shed switches the full-queue policy from blocking to load shedding:
	// a submit that finds the queue full fails immediately with
	// engine.ErrOverloaded instead of blocking the caller. A shedding
	// queue is full at Queue ops: a request is shed when the ops queued
	// ahead of it plus its own would exceed Queue, unless the queue is
	// empty. Servers
	// translate that into 429 + Retry-After (cmd/dyntcd does); library
	// callers that want backpressure leave it false. Shed requests are
	// counted in EngineStats.Shed.
	Shed bool
	// Deprecated: Workers is ignored; PRAM steps run on the executor.
	Workers int
	// Deprecated: Pool is ignored; there is no scheduler pool.
	Pool *SchedPool
	// WaveTap, when set, receives the sealed change record of every
	// executed mutating wave, on the executor goroutine — the durability
	// seam: pass a WaveLog's Append (or any shipper) to turn the engine's
	// wave stream into a replayable change log. Per-engine: when serving a
	// Forest, attach taps per tree with Engine.SetWaveTap instead.
	WaveTap func(Wave)
	// Faults, when set, is a deterministic fault-injection schedule
	// (NewFaultInjector): the engine checks site "engine.wave" once per
	// executed wave, and an injected error crashes the wave into a
	// poisoned engine — the chaos suite's stand-in for a leader dying
	// mid-traffic. Nil (production) injects nothing.
	Faults *FaultInjector
	// Obs, when set, is the process's observability hub (NewObs), shared
	// by every engine it is passed to and by a forest's query planner. It
	// turns on wave pipeline timing: flush, coalesce-wait and per-stage
	// histograms; span-sampled flushes (at the hub's period, and whenever
	// a flush carries a request submitted to Engine.Apply with a trace
	// context), each recorded as a flush span carrying the flush record,
	// with per-stage child spans and a deterministic wave anchor span per
	// sealed wave that WAL appends and replica replays stitch to by
	// (epoch, seq); every flush record handed to the hub; shed bursts
	// journaled. Nil keeps all of it off: the engine pays one boolean
	// check per flush and nothing else.
	Obs *Obs
}

// Serve starts an engine over e and returns it. Close the engine to drain
// pending requests and reclaim the Expr for direct use.
func (e *Expr) Serve(opts BatchOptions) *Engine {
	eo := opts.engineOptions()
	eo.WaveTap = opts.WaveTap
	return &Engine{expr: e, inner: engine.New(e, eo)}
}

// engineOptions maps opts onto the engine's options, all but WaveTap:
// a forest's engines are tapped per tree (Engine.SetWaveTap).
func (opts BatchOptions) engineOptions() engine.Options {
	return engine.Options{
		Queue:  opts.Queue,
		Shed:   opts.Shed,
		Obs:    opts.Obs,
		Faults: opts.Faults,
	}
}

// Close stops accepting requests and waits for pending ones to drain.
func (en *Engine) Close() { en.inner.Close() }

// Stats returns a point-in-time snapshot of coalescing behaviour.
func (en *Engine) Stats() EngineStats { return en.inner.Stats() }

// AppliedSeq returns the engine's wave change-log position: the sequence
// number of the last mutating wave executed on the tree.
func (en *Engine) AppliedSeq() uint64 { return en.inner.AppliedSeq() }

// Epoch returns the leadership term stamped into the engine's sealed
// waves (1 for a fresh tree; a restored tree carries its snapshot's
// epoch, and ApplyWave adopts a newer one from the log).
func (en *Engine) Epoch() uint64 { return en.inner.Epoch() }

// SetEpoch advances the wave-stamp epoch (never backwards). Promotion
// calls it after moving the Expr to the next term inside a barrier
// (Expr.AdoptEpoch), so the tree and its sealed waves agree.
func (en *Engine) SetEpoch(epoch uint64) { en.inner.SetEpoch(epoch) }

// SetWaveTap installs (nil removes) the engine's wave tap: every executed
// mutating wave's sealed change record is passed to tap on the executor
// goroutine. Attach before traffic (or right after a restore) for a
// gapless log; a WaveLog's Append is the usual tap.
func (en *Engine) SetWaveTap(tap func(Wave)) { en.inner.SetWaveTap(engine.WaveTap(tap)) }

// Snapshot captures the served tree through an engine barrier: the codec
// of Expr.Snapshot at the engine's current applied-wave sequence, taken
// against a quiescent tree, linearized with concurrent traffic.
func (en *Engine) Snapshot() ([]byte, error) {
	data, _, err := en.SnapshotAt()
	return data, err
}

// SnapshotAt is Snapshot returning also the applied-wave sequence the
// snapshot captures: a replay past the snapshot starts at the next wave.
func (en *Engine) SnapshotAt() ([]byte, uint64, error) {
	var data []byte
	var seq uint64
	var err error
	f := en.inner.Barrier(func(engine.Host) {
		seq = en.inner.AppliedSeq()
		data, err = en.expr.Snapshot(seq)
	})
	if werr := wait(f); werr != nil {
		return nil, 0, werr
	}
	return data, seq, err
}

// --- synchronous API: one blocking call per request, by node handle ---
// Each call is a one-op request addressed by handle (a dead or foreign
// handle fails with engine.ErrDeadNode). It fully consumes its Future and
// recycles it, so the blocking call path allocates nothing per request in
// steady state.

// Grow expands leaf into an op node with two fresh leaves and returns them.
func (en *Engine) Grow(leaf *Node, op Op, leftVal, rightVal int64) (l, r *Node, err error) {
	f := en.inner.ApplyTo(leaf, growOp(0, op, leftVal, rightVal))
	l, r, err = f.Pair()
	f.Recycle()
	return l, r, err
}

// Collapse deletes n's two leaf children, making n a leaf with newValue.
func (en *Engine) Collapse(n *Node, newValue int64) error {
	return wait(en.inner.ApplyTo(n, WaveOp{Kind: replog.OpCollapse, Value: newValue}))
}

// SetLeaf updates one leaf value.
func (en *Engine) SetLeaf(leaf *Node, v int64) error {
	return wait(en.inner.ApplyTo(leaf, WaveOp{Kind: replog.OpSetLeaf, Value: v}))
}

// SetOp updates the operation at an internal node.
func (en *Engine) SetOp(n *Node, op Op) error {
	return wait(en.inner.ApplyTo(n, setOpOp(0, op)))
}

// Value returns the value of the subexpression rooted at n.
func (en *Engine) Value(n *Node) (int64, error) {
	return value(en.inner.ApplyTo(n, WaveOp{Kind: replog.OpValue}))
}

// Root returns the value of the whole expression.
func (en *Engine) Root() (int64, error) { return value(en.RootAsync()) }

// wait redeems a Future for its error and recycles it.
func wait(f *Future) error {
	err := f.Wait()
	f.Recycle()
	return err
}

// value redeems a Future for its scalar result and recycles it.
func value(f *Future) (int64, error) {
	v, err := f.Value()
	f.Recycle()
	return v, err
}

// ErrLoggedBarrier reports a mutation inside a Query callback, or a
// Forest.Replace, on a wave-tapped (replicated) engine. Both bypass the
// wave change-log — followers would never see them and silently diverge
// — so they are refused (the tree is untouched). Route mutations through
// the Engine's methods or ApplyWave, which the log records.
var ErrLoggedBarrier = errors.New("dyntc: mutation inside Query on a replicated engine bypasses the wave log; use Engine methods")

// Query runs fn with exclusive, linearized access to the Expr: fn sees a
// quiescent tree and may call any Expr method. Use it for the §5 tour
// queries (Preorder, SubtreeSize, LCA, …) and anything else without a
// dedicated Engine method.
//
// On a wave-tapped engine (one feeding a change log) fn must not mutate
// the tree: mutation attempts are refused — Grow returns nil leaves, the
// set/collapse calls become no-ops — and Query returns ErrLoggedBarrier.
func (en *Engine) Query(fn func(*Expr)) error {
	var qerr error
	f := en.inner.Barrier(func(engine.Host) {
		if en.inner.Tap() == nil {
			fn(en.expr)
			return
		}
		en.expr.frozen, en.expr.frozenViolated = true, false
		fn(en.expr)
		en.expr.frozen = false
		if en.expr.frozenViolated {
			en.expr.frozenViolated = false
			qerr = ErrLoggedBarrier
		}
	})
	if err := wait(f); err != nil {
		return err
	}
	return qerr
}

// --- asynchronous API, by node ID: submit now, redeem the Future later ---
// For callers that cannot hold node handles or that pipeline requests.
// IDs are the dense, lifetime-stable tree.Node.ID values.

// Apply submits ops as one request and returns its Future, which resolves
// once every op has executed; Future.Results reports each op's outcome in
// order. Ops address nodes by ID (a root read names none) and are copied,
// so the caller may reuse the slice. The engine runs a flush as waves,
// each the longest conflict-free prefix of the flush's pending ops, so an
// op sees every op submitted before it, in its own request or an earlier
// one; reads run last in their wave, so a read also sees its wave's later
// writes to other nodes. A non-zero sc joins the request to a distributed
// trace: the flush that executes it adopts sc's trace and is always
// recorded into the engine's SpanLog, regardless of sampling.
func (en *Engine) Apply(sc TraceContext, ops []WaveOp) *Future {
	return en.inner.Apply(sc, ops...)
}

// The ID forms below are untraced one-op requests.

// GrowIDAsync submits a leaf expansion; Future.Pair returns the new leaves.
func (en *Engine) GrowIDAsync(leafID int, op Op, leftVal, rightVal int64) *Future {
	return en.inner.Apply(TraceContext{}, growOp(leafID, op, leftVal, rightVal))
}

// CollapseIDAsync submits a leaf-pair deletion.
func (en *Engine) CollapseIDAsync(nodeID int, newValue int64) *Future {
	return en.inner.Apply(TraceContext{}, WaveOp{Kind: replog.OpCollapse, Node: nodeID, Value: newValue})
}

// SetLeafIDAsync submits a leaf value update.
func (en *Engine) SetLeafIDAsync(leafID int, v int64) *Future {
	return en.inner.Apply(TraceContext{}, WaveOp{Kind: replog.OpSetLeaf, Node: leafID, Value: v})
}

// SetOpIDAsync submits an internal-operation update.
func (en *Engine) SetOpIDAsync(nodeID int, op Op) *Future {
	return en.inner.Apply(TraceContext{}, setOpOp(nodeID, op))
}

// ValueIDAsync submits a subexpression value query; Future.Value returns it.
func (en *Engine) ValueIDAsync(nodeID int) *Future {
	return en.inner.Apply(TraceContext{}, WaveOp{Kind: replog.OpValue, Node: nodeID})
}

// RootAsync submits a root value query; Future.Value returns it.
func (en *Engine) RootAsync() *Future {
	return en.inner.Apply(TraceContext{}, WaveOp{Kind: replog.OpRoot})
}

// growOp is the op growing leaf id into op over fresh leaves (l, r).
func growOp(id int, op Op, l, r int64) WaveOp {
	return WaveOp{Kind: replog.OpGrow, Node: id, A: op.A, B: op.B, C: op.C, Left: l, Right: r}
}

// setOpOp is the op setting node id's operation to op.
func setOpOp(id int, op Op) WaveOp {
	return WaveOp{Kind: replog.OpSetOp, Node: id, A: op.A, B: op.B, C: op.C}
}

// compile-time check: Expr is an engine host.
var _ engine.Host = (*Expr)(nil)

// TreeID identifies a tree within a Forest.
type TreeID = uint64

// Forest serves many independent expression trees, one engine (and one
// executor goroutine) per tree, so unrelated trees proceed fully in
// parallel. All methods are safe for concurrent use. One id→engine map
// indexes the trees: a tree is visible to Get, Len, Each and Query from
// the moment Create or Restore returns, and to none of them once Drop
// has removed it.
type Forest struct {
	opts    engine.Options
	planner *query.Planner

	mu     sync.RWMutex
	trees  map[TreeID]*Engine
	nextID TreeID // above every id ever served
}

// NewForest creates an empty forest; opts configures every tree's engine,
// and opts.Obs also instruments the forest's cross-tree query planner.
// The engine histogram families are registered on opts.Obs here, so an
// empty forest already exports them.
func NewForest(opts BatchOptions) *Forest {
	engine.RegisterHistograms(opts.Obs)
	return &Forest{
		opts:    opts.engineOptions(),
		planner: query.NewPlanner(0, opts.Obs),
		trees:   make(map[TreeID]*Engine),
		nextID:  1,
	}
}

// serve starts an engine over expr for tree id. The caller holds f.mu
// and publishes the engine.
func (f *Forest) serve(id TreeID, expr *Expr) *Engine {
	inner := engine.New(expr, f.opts)
	inner.SetTraceID(id)
	return &Engine{expr: expr, inner: inner}
}

// Create adds a new single-leaf expression tree over ring r and returns
// its id and serving engine.
func (f *Forest) Create(r Ring, rootValue int64, opts ...Option) (TreeID, *Engine) {
	expr := NewExpr(r, rootValue, opts...)
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.nextID
	f.nextID++
	en := f.serve(id, expr)
	f.trees[id] = en
	return id, en
}

// Restore rebuilds a tree from a leader snapshot and serves it under the
// caller-chosen id (the replication path: a replica keeps the leader's
// tree id). The seed and tour setting come from the snapshot. The engine
// starts at the snapshot's applied-wave sequence, which is returned
// alongside it. Restore fails, wrapping engine.ErrTreeExists, when the id
// is already served.
func (f *Forest) Restore(id TreeID, snapshot []byte) (*Engine, uint64, error) {
	expr, seq, err := RestoreExpr(snapshot)
	if err != nil {
		return nil, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, taken := f.trees[id]; taken {
		return nil, 0, fmt.Errorf("%w (tree %d)", engine.ErrTreeExists, id)
	}
	f.nextID = max(f.nextID, id+1)
	en := f.serve(id, expr)
	en.inner.SetAppliedSeq(seq)
	f.trees[id] = en
	return en, seq, nil
}

// Replace serves a snapshot under id in place of the tree id serves now —
// the replica re-bootstrap path — or adds it like Restore when id is free.
// The swap runs inside the serving engine's barrier, so a concurrent
// reader sees the old tree or the new one, never a missing id; the engine
// continues at the snapshot's applied-wave sequence and epoch. A
// wave-tapped engine refuses with ErrLoggedBarrier: its tree is the log's.
func (f *Forest) Replace(id TreeID, snapshot []byte) (*Engine, uint64, error) {
	en, ok := f.Get(id)
	if !ok {
		return f.Restore(id, snapshot)
	}
	expr, seq, err := RestoreExpr(snapshot)
	if err != nil {
		return nil, 0, err
	}
	var rerr error
	b := en.inner.Barrier(func(engine.Host) {
		if en.inner.Tap() != nil {
			rerr = ErrLoggedBarrier
			return
		}
		en.expr = expr
		en.inner.SetHost(expr)
		en.inner.SetAppliedSeq(seq)
		en.inner.SetEpoch(expr.Epoch())
	})
	if err = wait(b); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, 0, err
	}
	return en, seq, nil
}

// Get returns the engine serving tree id.
func (f *Forest) Get(id TreeID) (*Engine, bool) {
	f.mu.RLock()
	en, ok := f.trees[id]
	f.mu.RUnlock()
	return en, ok
}

// Drop closes and removes tree id, reporting whether it existed. Pending
// requests drain before Drop returns.
func (f *Forest) Drop(id TreeID) bool {
	f.mu.Lock()
	en, ok := f.trees[id]
	delete(f.trees, id)
	f.mu.Unlock()
	if ok {
		en.Close()
	}
	return ok
}

// Len returns the number of live trees.
func (f *Forest) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.trees)
}

// Each calls fn for every live tree, over a snapshot taken before the
// first call. fn must not call back into the forest's lifecycle methods.
func (f *Forest) Each(fn func(id TreeID, en *Engine)) {
	f.mu.RLock()
	trees := maps.Clone(f.trees)
	f.mu.RUnlock()
	for id, en := range trees {
		fn(id, en)
	}
}

// Stats aggregates the engine stats of every live tree.
func (f *Forest) Stats() EngineStats {
	var ens []*engine.Engine
	f.Each(func(_ TreeID, en *Engine) { ens = append(ens, en.inner) })
	return engine.TotalStats(ens)
}

// Close drains and closes every tree's engine and empties the forest.
func (f *Forest) Close() {
	f.mu.Lock()
	trees := f.trees
	f.trees = make(map[TreeID]*Engine)
	f.mu.Unlock()
	for _, en := range trees {
		en.Close()
	}
}
