package dyntc_test

import (
	"errors"
	"testing"

	"dyntc"
)

// TestLoggedBarrierRejectsMutation closes the replication-divergence
// hole: a mutation inside a Query callback on a wave-tapped engine would
// bypass the change log, so it is refused and Query reports it.
func TestLoggedBarrierRejectsMutation(t *testing.T) {
	ring := dyntc.ModRing(1_000_000_007)
	e := dyntc.NewExpr(ring, 7, dyntc.WithSeed(3))
	en := e.Serve(dyntc.BatchOptions{})
	defer en.Close()

	// Untapped engine: barrier mutations remain allowed (back-compat for
	// single-process embedders that never replicate).
	var l *dyntc.Node
	if err := en.Query(func(e *dyntc.Expr) {
		l, _ = e.Grow(e.Tree().Root, dyntc.OpAdd(ring), 3, 4)
	}); err != nil {
		t.Fatalf("untapped barrier mutation: %v", err)
	}
	if l == nil {
		t.Fatal("untapped barrier grow returned nil leaf")
	}
	root, err := en.Root()
	if err != nil || root != 7 {
		t.Fatalf("root after untapped grow: %d, %v", root, err)
	}

	// Tap the engine: it now feeds a change log.
	wl, err := dyntc.NewWaveLog(64, "")
	if err != nil {
		t.Fatal(err)
	}
	en.SetWaveTap(func(w dyntc.Wave) { _ = wl.Append(w) })

	seqBefore := en.AppliedSeq()
	logBefore := wl.LastSeq()

	// Every mutation entry point inside the barrier is refused, the tree
	// is untouched, and Query returns ErrLoggedBarrier.
	for name, fn := range map[string]func(e *dyntc.Expr){
		"grow":     func(e *dyntc.Expr) { e.Grow(l, dyntc.OpAdd(ring), 1, 2) },
		"collapse": func(e *dyntc.Expr) { e.Collapse(e.Tree().Root, 9) },
		"set-leaf": func(e *dyntc.Expr) { e.SetLeaf(l, 99) },
		"set-op":   func(e *dyntc.Expr) { e.SetOp(e.Tree().Root, dyntc.OpMul(ring)) },
	} {
		if err := en.Query(fn); !errors.Is(err, dyntc.ErrLoggedBarrier) {
			t.Fatalf("%s in tapped barrier: err %v, want ErrLoggedBarrier", name, err)
		}
	}
	// Replaying a wave onto a tapped engine is refused the same way.
	if err := en.ApplyWave(dyntc.Wave{Seq: seqBefore + 1}); !errors.Is(err, dyntc.ErrLoggedBarrier) {
		t.Fatalf("ApplyWave on tapped engine: err %v, want ErrLoggedBarrier", err)
	}
	if root, _ := en.Root(); root != 7 {
		t.Fatalf("tree mutated through tapped barrier: root %d", root)
	}
	if en.AppliedSeq() != seqBefore || wl.LastSeq() != logBefore {
		t.Fatalf("sequence moved: applied %d->%d log %d->%d",
			seqBefore, en.AppliedSeq(), logBefore, wl.LastSeq())
	}

	// The refused grow returned nil leaves rather than fake handles.
	var gl, gr *dyntc.Node
	_ = en.Query(func(e *dyntc.Expr) { gl, gr = e.Grow(l, dyntc.OpAdd(ring), 1, 2) })
	if gl != nil || gr != nil {
		t.Fatal("refused grow returned live-looking leaves")
	}

	// Read-only barriers still pass, and logged mutations still flow.
	if err := en.Query(func(e *dyntc.Expr) { _ = e.Root() }); err != nil {
		t.Fatalf("read-only tapped barrier: %v", err)
	}
	if err := en.SetLeaf(l, 10); err != nil {
		t.Fatalf("engine mutation on tapped engine: %v", err)
	}
	if wl.LastSeq() != logBefore+1 {
		t.Fatalf("logged mutation not recorded: log at %d", wl.LastSeq())
	}
	if root, _ := en.Root(); root != 14 {
		t.Fatalf("root after logged set-leaf: %d", root)
	}
}
