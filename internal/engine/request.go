package engine

import (
	"errors"
	"slices"
	"sync"
	"time"

	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// Errors reported through futures. Engine validation replaces the panics of
// internal/core: a malformed op fails its own result and never reaches
// the contraction, so one bad client cannot take the executor down.
var (
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrDeadNode reports an op addressing a deleted (or foreign) node.
	ErrDeadNode = errors.New("engine: node is not live in this tree")
	// ErrNotLeaf reports Grow/SetLeaf on an internal node.
	ErrNotLeaf = errors.New("engine: node is not a leaf")
	// ErrNotCollapsible reports Collapse on a node without two leaf children.
	ErrNotCollapsible = errors.New("engine: node does not have two leaf children")
	// ErrNotInternal reports SetOp on a leaf.
	ErrNotInternal = errors.New("engine: node is not an internal node")
	// ErrBadKind reports an op of no known kind.
	ErrBadKind = errors.New("engine: unknown op kind")
	// ErrPoisoned reports that a previous executor panic left the structure
	// in an unknown state; the engine refuses further traffic.
	ErrPoisoned = errors.New("engine: poisoned by a previous executor panic")
	// ErrTreeExists reports a tree restored under an id already served.
	ErrTreeExists = errors.New("engine: forest already serves this tree id")
	// ErrOverloaded reports a submit rejected because the queue was full
	// (engines with Options.Shed; blocking engines never return it).
	ErrOverloaded = errors.New("engine: submit queue full")
)

// errNotRun marks the result of an op that has not executed yet. The
// executor clears it as the op runs (or sets the op's validation error),
// so after a panic it tells the ops that ran from those that did not.
var errNotRun = errors.New("engine: op has not run")

// Result is the outcome of one op of a request.
type Result struct {
	Value int64     // value and root reads: the value read
	Seq   uint64    // reads: the applied-wave sequence the value comes from
	Pair  [2]*NodeT // grow: the two new leaves
	Err   error     // the op failed validation
}

// Future is one submitted request: an ordered op list (or a barrier),
// resolved once, when its last op has executed. The submitting goroutine
// keeps the only reference until then; Wait blocks until it happens. A
// resolved Future may be waited on by any number of goroutines.
//
// Futures come from a pool: the hot submit→execute→wait cycle reuses the
// struct, its op and result buffers, its mutex and its condition
// variable, so steady-state request traffic does not allocate per
// request. A caller that has fully consumed a resolved Future may hand it
// back with Recycle; the synchronous convenience wrappers
// (dyntc.Engine.Grow etc.) do so automatically.
type Future struct {
	ops  []replog.Op
	res  []Result
	pin  *NodeT          // ApplyTo's handle, checked against ops[0].Node
	fn   func(Host)      // barrier payload
	at   time.Time       // submit time, stamped only on timing-enabled engines
	span obs.SpanContext // distributed-trace context, zero for untraced requests

	// resolution — written by the executor under mu; waiters block on
	// cond until resolved flips. doneCh is only materialized when Done()
	// is called (select-style waiters), so the common blocking path is
	// allocation-free.
	mu       sync.Mutex
	cond     sync.Cond
	resolved bool
	doneCh   chan struct{}
	err      error // the request as a whole failed (closed, shed, poisoned)
}

var futurePool = sync.Pool{New: func() any {
	f := &Future{}
	f.cond.L = &f.mu
	return f
}}

// newFuture returns a pooled Future holding a copy of ops and a result per
// op that has not run yet.
func newFuture(ops []replog.Op) *Future {
	f := futurePool.Get().(*Future)
	f.ops = append(f.ops[:0], ops...)
	f.res = slices.Grow(f.res[:0], len(ops))[:len(ops)]
	for i := range f.res {
		f.res[i] = Result{Err: errNotRun}
	}
	return f
}

// size is what the request counts for in the stats and the flush bound:
// its ops, or one for a barrier.
func (f *Future) size() int {
	if f.fn != nil {
		return 1
	}
	return len(f.ops)
}

// resolve releases waiters with the request-level error err. Must be
// called exactly once per Future lifetime, by the executor (or by a failed
// submit while the caller still holds the only reference).
func (f *Future) resolve(err error) {
	f.mu.Lock()
	f.err = err
	f.resolved = true
	if f.doneCh != nil {
		close(f.doneCh)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// abort resolves f after an executor panic. The ops that ran keep their
// results and the rest fail with err; a request none of whose ops ran
// fails as a whole. So a write whose wave was sealed (and logged) before
// the panic is never reported as failed.
func (f *Future) abort(err error) {
	ran := false
	for i := range f.res {
		if f.res[i].Err == errNotRun {
			f.res[i].Err = err
		} else {
			ran = true
		}
	}
	if ran {
		err = nil
	}
	f.resolve(err)
}

// Done returns a channel closed when the request has executed (or failed).
// The channel is created on first call; prefer Wait and the result
// accessors, which do not allocate.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.doneCh == nil {
		f.doneCh = make(chan struct{})
		if f.resolved {
			close(f.doneCh)
		}
	}
	return f.doneCh
}

// Results blocks until the request has executed and returns one Result
// per op, in submission order, valid until Recycle. A non-nil error means
// the request failed as a whole (closed, shed or poisoned engine) before
// any of its ops ran, and the results are meaningless. When the engine is
// poisoned part-way through a request, the ops that had run keep their
// results and the rest report the ErrPoisoned error.
func (f *Future) Results() ([]Result, error) {
	f.mu.Lock()
	for !f.resolved {
		f.cond.Wait()
	}
	res, err := f.res, f.err
	f.mu.Unlock()
	return res, err
}

// first returns the first op's result, carrying the request-level error
// when there is one: the accessors of one-op requests.
func (f *Future) first() Result {
	res, err := f.Results()
	var r Result
	if len(res) > 0 {
		r = res[0]
	}
	if err != nil {
		r.Err = err
	}
	return r
}

// Wait blocks until the request has executed and returns its error: the
// request-level one, else the first failed op's.
func (f *Future) Wait() error {
	res, err := f.Results()
	for i := 0; err == nil && i < len(res); i++ {
		err = res[i].Err
	}
	return err
}

// Value returns the first op's value (value / root reads).
func (f *Future) Value() (int64, error) {
	r := f.first()
	return r.Value, r.Err
}

// ValueSeq returns the first op's value together with the engine's
// applied-wave sequence at the moment it was read: exactly which version
// of the tree answered — the fan-in contract cross-tree queries join on.
// Mutating ops and failed ops report sequence 0.
func (f *Future) ValueSeq() (int64, uint64, error) {
	r := f.first()
	return r.Value, r.Seq, r.Err
}

// Pair returns the two leaves created by the first op, a grow.
func (f *Future) Pair() (l, r *NodeT, err error) {
	res := f.first()
	return res.Pair[0], res.Pair[1], res.Err
}

// maxPooledOps bounds the op buffer a recycled Future keeps, so one huge
// request does not pin its buffers in the pool.
const maxPooledOps = 64

// Recycle returns a resolved Future to the allocation pool. Call it only
// when the request has resolved and no other goroutine holds a reference;
// afterwards the Future must not be touched. Recycling is optional — an
// abandoned Future is simply garbage collected — and a no-op on a Future
// that has not resolved yet.
func (f *Future) Recycle() {
	f.mu.Lock()
	if !f.resolved {
		f.mu.Unlock()
		return
	}
	if cap(f.ops) > maxPooledOps {
		f.ops, f.res = nil, nil
	}
	f.ops, f.res = f.ops[:0], f.res[:0]
	f.pin = nil
	f.fn = nil
	f.at = time.Time{}
	f.span = obs.SpanContext{}
	f.resolved = false
	f.doneCh = nil
	f.err = nil
	f.mu.Unlock()
	futurePool.Put(f)
}
