package engine_test

import (
	"errors"
	"testing"

	"dyntc"
	"dyntc/internal/engine"
)

// holdFlush blocks the executor inside a barrier so every request
// submitted before release() lands in one flush, then releases it.
func holdFlush(t *testing.T, en *dyntc.Engine) (release func()) {
	t.Helper()
	started := make(chan struct{})
	unblock := make(chan struct{})
	go func() {
		_ = en.Query(func(*dyntc.Expr) { close(started); <-unblock })
	}()
	<-started
	return func() { close(unblock) }
}

// TestSameNodeOrdering: requests touching one node within a single flush
// execute in submission order, across waves.
func TestSameNodeOrdering(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}

	release := holdFlush(t, en)
	before := en.Stats().Waves // the holding barrier's wave is counted
	f1 := en.SetLeafIDAsync(l.ID, 5)
	f2 := en.ValueIDAsync(l.ID)
	f3 := en.SetLeafIDAsync(l.ID, 9)
	f4 := en.ValueIDAsync(l.ID)
	release()

	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, err := f2.Value(); err != nil || v != 5 {
		t.Fatalf("value after first set = %d, %v", v, err)
	}
	if err := f3.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, err := f4.Value(); err != nil || v != 9 {
		t.Fatalf("value after second set = %d, %v", v, err)
	}
	// Four same-node requests cannot share a wave: at least 4 waves ran
	// for that flush.
	if got := en.Stats().Waves - before; got < 4 {
		t.Fatalf("waves = %d, want >= 4", got)
	}
}

// TestStructuralOrdering: a grow followed by same-flush requests on the
// grown leaf — the later requests see the post-grow structure (and fail
// accordingly), exactly as if submitted in sequence.
func TestStructuralOrdering(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}

	release := holdFlush(t, en)
	fg := en.GrowIDAsync(l.ID, dyntc.OpMul(ring), 6, 7)
	fs := en.SetLeafIDAsync(l.ID, 1) // l is internal by the time this runs
	fv := en.ValueIDAsync(l.ID)      // subtree value: 6*7
	fc := en.CollapseIDAsync(l.ID, 2)
	release()

	if _, _, err := fg.Pair(); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := fs.Wait(); !errors.Is(err, engine.ErrNotLeaf) {
		t.Fatalf("set-leaf after grow: %v", err)
	}
	if v, err := fv.Value(); err != nil || v != 42 {
		t.Fatalf("value after grow = %d, %v", v, err)
	}
	if err := fc.Wait(); err != nil {
		t.Fatalf("collapse after grow: %v", err)
	}
	if v, _ := en.Root(); v != 6 {
		t.Fatalf("2+4 = %d", v)
	}
}

// TestDisjointRequestsShareWave: requests on disjoint nodes coalesce into
// a single wave (one core batch per kind).
func TestDisjointRequestsShareWave(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	// Build a fan of 8 leaves.
	leaves := []*dyntc.Node{e.Tree().Root}
	for len(leaves) < 8 {
		l, r, err := en.Grow(leaves[0], dyntc.OpAdd(ring), 1, 1)
		if err != nil {
			t.Fatalf("Grow: %v", err)
		}
		leaves = append(leaves[1:], l, r)
	}

	release := holdFlush(t, en)
	before := en.Stats().Waves // the holding barrier's wave is counted
	var futs []*dyntc.Future
	for i, l := range leaves {
		futs = append(futs, en.SetLeafIDAsync(l.ID, int64(i+1)))
	}
	release()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := en.Stats().Waves - before; got != 1 {
		t.Fatalf("disjoint sets used %d waves, want 1", got)
	}
	if v, _ := en.Root(); v != 1+2+3+4+5+6+7+8 {
		t.Fatalf("root = %d", v)
	}
}

// TestMixedKindsOneWave: disjoint grow + collapse + set-leaf + set-op +
// value all execute in one wave.
func TestMixedKindsOneWave(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	// Fan of 4 independent subtrees: g (to grow), c (to collapse),
	// s (set-leaf), o-subtree (set-op at its parent).
	l1, r1, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, c, err := en.Grow(l1, dyntc.OpAdd(ring), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, o, err := en.Grow(r1, dyntc.OpAdd(ring), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Make c internal with two leaf children so it can collapse.
	if _, _, err := en.Grow(c, dyntc.OpAdd(ring), 2, 3); err != nil {
		t.Fatal(err)
	}
	// Make o internal so set-op applies.
	ol, or, err := en.Grow(o, dyntc.OpMul(ring), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = ol, or

	release := holdFlush(t, en)
	before := en.Stats().Waves // the holding barrier's wave is counted
	fg := en.GrowIDAsync(g.ID, dyntc.OpMul(ring), 4, 5)
	fc := en.CollapseIDAsync(c.ID, 9)
	fs := en.SetLeafIDAsync(s.ID, 7)
	fo := en.SetOpIDAsync(o.ID, dyntc.OpAdd(ring))
	fv := en.RootAsync()
	release()

	for _, f := range []*dyntc.Future{fg, fc, fs, fo, fv} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := en.Stats().Waves - before; got != 1 {
		t.Fatalf("mixed disjoint kinds used %d waves, want 1", got)
	}
	// g=4*5=20, c=9 → left subtree 29; s=7, o=2+3=5 → right 12; root 41.
	if v, _ := en.Root(); v != 41 {
		t.Fatalf("root = %d, want 41", v)
	}
}

// TestAckAfterWaveLogged: a mutating request is acknowledged only after
// its wave has reached the wave tap (the WAL append), so an acked write is
// always in the log. The tap runs while the wave is sealed and must still
// see the wave's futures pending.
func TestAckAfterWaveLogged(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, r, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	var fg, fs *dyntc.Future
	taps := 0
	en.SetWaveTap(func(w dyntc.Wave) {
		taps++
		for _, f := range []*dyntc.Future{fg, fs} {
			select {
			case <-f.Done():
				t.Errorf("wave %d: a mutating future resolved before the tap logged its wave", w.Seq)
			default:
			}
		}
	})
	release := holdFlush(t, en)
	fg = en.GrowIDAsync(l.ID, dyntc.OpMul(ring), 6, 7)
	fs = en.SetLeafIDAsync(r.ID, 5)
	release()

	if _, _, err := fg.Pair(); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := fs.Wait(); err != nil {
		t.Fatalf("set-leaf: %v", err)
	}
	if taps != 1 {
		t.Fatalf("tap ran %d times, want 1 (grow and set share a wave)", taps)
	}
	if v, _ := en.Root(); v != 42+5 {
		t.Fatalf("root = %d, want %d", v, 42+5)
	}
}

// TestCollapseFootprintBlocksChildren: a collapse and a same-flush request
// on one of its children conflict (the child dies); order is preserved.
func TestCollapseFootprintBlocksChildren(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, r, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = r

	release := holdFlush(t, en)
	fv := en.ValueIDAsync(l.ID) // reads l before the collapse kills it
	fc := en.CollapseIDAsync(e.Tree().Root.ID, 9)
	fs := en.SetLeafIDAsync(l.ID, 8) // after the collapse: dead node
	release()

	if v, err := fv.Value(); err != nil || v != 3 {
		t.Fatalf("value before collapse = %d, %v", v, err)
	}
	if err := fc.Wait(); err != nil {
		t.Fatalf("collapse: %v", err)
	}
	if err := fs.Wait(); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("set dead leaf: %v", err)
	}
	if v, _ := en.Root(); v != 9 {
		t.Fatalf("root = %d", v)
	}
}
