package dyntc_test

import (
	"errors"
	"testing"

	"dyntc"
)

// TestLoggedBarrierRejectsMutation closes the replication-divergence
// hole: a mutation inside a Query callback on a wave-tapped engine would
// bypass the change log, so it is refused and Query reports it. A shipped
// wave replayed onto a tapped engine goes through the log instead.
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
	if root, _ := en.Root(); root != 7 {
		t.Fatalf("tree mutated through tapped barrier: root %d", root)
	}
	if en.AppliedSeq() != seqBefore || wl.LastSeq() != logBefore {
		t.Fatalf("sequence moved: applied %d->%d log %d->%d",
			seqBefore, en.AppliedSeq(), logBefore, wl.LastSeq())
	}

	// Three waves a twin of the tree ships, as a leader would.
	snap, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	twin, _, err := dyntc.RestoreExpr(snap)
	if err != nil {
		t.Fatal(err)
	}
	tl := twin.Tree().Nodes[l.ID]
	var shipped []dyntc.Wave
	ten := twin.Serve(dyntc.BatchOptions{WaveTap: func(w dyntc.Wave) { shipped = append(shipped, w) }})
	for v := int64(5); v <= 7; v++ {
		if err := ten.SetLeaf(tl, v); err != nil {
			t.Fatal(err)
		}
	}
	ten.Close()
	if len(shipped) != 3 || shipped[0].Seq != seqBefore+1 {
		t.Fatalf("twin shipped %d waves from seq %d, want 3 from %d", len(shipped), shipped[0].Seq, seqBefore+1)
	}

	// A tapped engine appends an applied wave to its log before the wave
	// counts as applied, and still refuses a gap and a stale epoch.
	if err := en.ApplyWave(shipped[0]); err != nil {
		t.Fatalf("ApplyWave on tapped engine: %v", err)
	}
	if root, _ := en.Root(); root != 9 || en.AppliedSeq() != seqBefore+1 || wl.LastSeq() != logBefore+1 {
		t.Fatalf("after an applied wave: root %d, applied %d, log %d; want 9, %d, %d",
			root, en.AppliedSeq(), wl.LastSeq(), seqBefore+1, logBefore+1)
	}
	if err := en.ApplyWave(shipped[2]); !errors.Is(err, dyntc.ErrWaveGap) {
		t.Fatalf("ApplyWave past a gap: err %v, want ErrWaveGap", err)
	}
	newTerm := shipped[1]
	newTerm.Epoch = 2
	newTerm.Seal()
	if err := en.ApplyWave(newTerm); err != nil {
		t.Fatalf("ApplyWave of a newer term: %v", err)
	}
	if err := en.ApplyWave(shipped[2]); !errors.Is(err, dyntc.ErrStaleEpoch) {
		t.Fatalf("ApplyWave of a stale epoch: err %v, want ErrStaleEpoch", err)
	}
	if en.AppliedSeq() != seqBefore+2 || wl.LastSeq() != logBefore+2 || en.Epoch() != 2 {
		t.Fatalf("after the refusals: applied %d, log %d, epoch %d; want %d, %d, 2",
			en.AppliedSeq(), wl.LastSeq(), en.Epoch(), seqBefore+2, logBefore+2)
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
	if wl.LastSeq() != logBefore+3 {
		t.Fatalf("logged mutation not recorded: log at %d", wl.LastSeq())
	}
	if root, _ := en.Root(); root != 14 {
		t.Fatalf("root after logged set-leaf: %d", root)
	}
}
