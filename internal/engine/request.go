package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dyntc/internal/obs"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// Errors reported through futures. Engine validation replaces the panics of
// internal/core: a malformed request fails its own future and never reaches
// the contraction, so one bad client cannot take the executor down.
var (
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("engine: closed")
	// ErrDeadNode reports a request addressing a deleted (or foreign) node.
	ErrDeadNode = errors.New("engine: node is not live in this tree")
	// ErrNotLeaf reports Grow/SetLeaf on an internal node.
	ErrNotLeaf = errors.New("engine: node is not a leaf")
	// ErrNotCollapsible reports Collapse on a node without two leaf children.
	ErrNotCollapsible = errors.New("engine: node does not have two leaf children")
	// ErrNotInternal reports SetOp on a leaf.
	ErrNotInternal = errors.New("engine: node is not an internal node")
	// ErrPoisoned reports that a previous executor panic left the structure
	// in an unknown state; the engine refuses further traffic.
	ErrPoisoned = errors.New("engine: poisoned by a previous executor panic")
	// ErrTreeExists reports a tree restored under an id already served.
	ErrTreeExists = errors.New("engine: forest already serves this tree id")
	// ErrOverloaded reports a submit rejected because the queue was full
	// (engines with Options.Shed; blocking engines never return it).
	ErrOverloaded = errors.New("engine: submit queue full")
)

// NodeRef addresses a node of the host tree either by live handle or by its
// dense tree ID. ID-based refs are resolved on the executor goroutine
// against a quiescent tree, which is what remote callers (cmd/dyntcd) need:
// they never hold *tree.Node pointers.
type NodeRef struct {
	N    *tree.Node
	ID   int
	ByID bool
}

// Ref addresses a node by live handle.
func Ref(n *tree.Node) NodeRef { return NodeRef{N: n} }

// RefID addresses a node by tree ID.
func RefID(id int) NodeRef { return NodeRef{ID: id, ByID: true} }

// kind enumerates the request kinds the engine coalesces.
type kind uint8

const (
	kGrow kind = iota
	kCollapse
	kSetLeaf
	kSetOp
	kValue
	kRoot
	kBarrier
)

func (k kind) String() string {
	switch k {
	case kGrow:
		return "grow"
	case kCollapse:
		return "collapse"
	case kSetLeaf:
		return "set-leaf"
	case kSetOp:
		return "set-op"
	case kValue:
		return "value"
	case kRoot:
		return "root"
	case kBarrier:
		return "barrier"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Future is one submitted request. The submitting goroutine keeps the only
// reference until the executor resolves it; Wait blocks until then. A
// Future is resolved exactly once and may be waited on by any number of
// goroutines afterwards.
//
// Futures come from a pool: the hot submit→execute→wait cycle reuses the
// struct, its mutex and its condition variable, so steady-state request
// traffic does not allocate per request. A caller that has fully consumed
// a resolved Future may hand it back with Recycle; the synchronous
// convenience wrappers (dyntc.Engine.Grow etc.) do so automatically.
type Future struct {
	kind kind
	ref  NodeRef
	op   semiring.Op
	a, b int64           // grow: left/right values; set-leaf/collapse: new value in a
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
	val      int64
	seq      uint64 // applied-wave sequence observed by read requests
	pair     [2]*tree.Node
	err      error
}

var futurePool = sync.Pool{New: func() any {
	f := &Future{}
	f.cond.L = &f.mu
	return f
}}

// newFuture returns a pooled, fully reset Future for one request.
func newFuture(k kind) *Future {
	f := futurePool.Get().(*Future)
	f.kind = k
	return f
}

// resolve fills the result and releases waiters. Must be called exactly
// once per Future lifetime, by the executor (or by a failed submit while
// the caller still holds the only reference).
func (f *Future) resolve(val int64, pair [2]*tree.Node, err error) {
	f.mu.Lock()
	f.val, f.pair, f.err = val, pair, err
	f.resolved = true
	if f.doneCh != nil {
		close(f.doneCh)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Done returns a channel closed when the request has executed (or failed).
// The channel is created on first call; prefer Wait/Value/Pair, which do
// not allocate.
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

// Wait blocks until the request has executed and returns its error.
func (f *Future) Wait() error {
	f.mu.Lock()
	for !f.resolved {
		f.cond.Wait()
	}
	err := f.err
	f.mu.Unlock()
	return err
}

// Value returns the request's scalar result (value / root queries) after
// Wait.
func (f *Future) Value() (int64, error) {
	f.mu.Lock()
	for !f.resolved {
		f.cond.Wait()
	}
	val, err := f.val, f.err
	f.mu.Unlock()
	return val, err
}

// ValueSeq returns the request's scalar result together with the engine's
// applied-wave sequence number at the moment the request executed. For
// value / root / barrier requests the sequence identifies exactly which
// version of the tree answered — the fan-in contract cross-tree queries
// join on. Mutating requests and requests failed by validation report
// sequence 0.
func (f *Future) ValueSeq() (int64, uint64, error) {
	f.mu.Lock()
	for !f.resolved {
		f.cond.Wait()
	}
	val, seq, err := f.val, f.seq, f.err
	f.mu.Unlock()
	return val, seq, err
}

// Pair returns the two leaves created by a grow request after Wait.
func (f *Future) Pair() (l, r *tree.Node, err error) {
	f.mu.Lock()
	for !f.resolved {
		f.cond.Wait()
	}
	l, r, err = f.pair[0], f.pair[1], f.err
	f.mu.Unlock()
	return l, r, err
}

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
	f.kind = 0
	f.ref = NodeRef{}
	f.op = semiring.Op{}
	f.a, f.b = 0, 0
	f.fn = nil
	f.at = time.Time{}
	f.span = obs.SpanContext{}
	f.resolved = false
	f.doneCh = nil
	f.val = 0
	f.seq = 0
	f.pair = [2]*tree.Node{}
	f.err = nil
	f.mu.Unlock()
	futurePool.Put(f)
}
