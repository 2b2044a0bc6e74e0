package query

import (
	"fmt"

	"dyntc/internal/engine"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
	"dyntc/internal/tree"
)

// Reader is the per-tree read surface a planner scatters over. A forest
// implements it with StartRead (below), which submits asynchronous reads
// into the tree's coalescing engine — a leader's tree or a follower's
// replica alike.
type Reader interface {
	// Trees returns a snapshot of the served tree ids, sorted ascending.
	Trees() []uint64
	// Start begins the read on tree id and returns a handle to gather it
	// with. Start must not block on the read executing — submission and
	// collection are separate so a whole chunk of reads can ride one
	// coalescing window. A nil handle means the tree is not served.
	Start(id uint64, r Read) Handle
}

// Handle is one in-flight per-tree read.
type Handle interface {
	// Wait blocks until the read executed and returns its value together
	// with the applied-wave sequence number the read observed.
	Wait() (value int64, seq uint64, err error)
}

// TourHost is the optional host capability subtree-size reads require.
// dyntc.Expr implements it; HasTour reports whether the Eulerian tour is
// maintained (trees built without WithTour answer ErrNoTour instead of
// panicking the executor).
type TourHost interface {
	HasTour() bool
	SubtreeSize(n *tree.Node) int
}

// StartRead begins read r on engine e: root and node-value reads submit
// one-op engine requests (joining in-flight waves), subtree-size reads
// ride an engine barrier against the tour.
func StartRead(e *engine.Engine, r Read) Handle {
	switch r.Kind {
	case ReadRoot:
		return futureHandle{f: e.Apply(obs.SpanContext{}, replog.Op{Kind: replog.OpRoot})}
	case ReadValue:
		return futureHandle{f: e.Apply(obs.SpanContext{}, replog.Op{Kind: replog.OpValue, Node: r.Node})}
	case ReadSubtree:
		h := &barrierHandle{}
		h.f = e.Barrier(func(host engine.Host) {
			h.val, h.seq, h.err = subtreeSize(host, e, r.Node)
		})
		return h
	}
	return nil
}

// futureHandle gathers an asynchronous value/root read.
type futureHandle struct{ f *engine.Future }

func (h futureHandle) Wait() (int64, uint64, error) {
	v, seq, err := h.f.ValueSeq()
	h.f.Recycle()
	return v, seq, err
}

// barrierHandle gathers a read executed inside an engine barrier.
type barrierHandle struct {
	f   *engine.Future
	val int64
	seq uint64
	err error
}

func (h *barrierHandle) Wait() (int64, uint64, error) {
	werr := h.f.Wait()
	h.f.Recycle()
	if werr != nil {
		return 0, 0, werr
	}
	return h.val, h.seq, h.err
}

// subtreeSize runs on the executor goroutine against a quiescent host.
func subtreeSize(host engine.Host, e *engine.Engine, nodeID int) (int64, uint64, error) {
	th, ok := host.(TourHost)
	if !ok || !th.HasTour() {
		return 0, 0, ErrNoTour
	}
	t := host.Tree()
	if nodeID < 0 || nodeID >= len(t.Nodes) || t.Nodes[nodeID] == nil {
		return 0, 0, fmt.Errorf("%w (id %d)", engine.ErrDeadNode, nodeID)
	}
	return int64(th.SubtreeSize(t.Nodes[nodeID])), e.AppliedSeq(), nil
}
