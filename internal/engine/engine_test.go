package engine_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/engine"
)

const mod = 1_000_000_007

func newEngine(t *testing.T, rootVal int64, opts dyntc.BatchOptions) (*dyntc.Engine, *dyntc.Expr) {
	t.Helper()
	ring := dyntc.ModRing(mod)
	e := dyntc.NewExpr(ring, rootVal, dyntc.WithSeed(42))
	en := e.Serve(opts)
	t.Cleanup(en.Close)
	return en, e
}

func TestSequentialSemantics(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 3, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if v, _ := en.Root(); v != 7 {
		t.Fatalf("3+4 = %d", v)
	}
	if err := en.SetLeaf(l, 10); err != nil {
		t.Fatalf("SetLeaf: %v", err)
	}
	if v, _ := en.Root(); v != 14 {
		t.Fatalf("10+4 = %d", v)
	}
	ll, lr, err := en.Grow(l, dyntc.OpMul(ring), 6, 7)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if v, _ := en.Value(l); v != 42 {
		t.Fatalf("6*7 = %d", v)
	}
	if err := en.SetOp(e.Tree().Root, dyntc.OpMul(ring)); err != nil {
		t.Fatalf("SetOp: %v", err)
	}
	if v, _ := en.Root(); v != 42*4 {
		t.Fatalf("42*4 = %d", v)
	}
	_, _ = ll, lr
	if err := en.Collapse(l, 5); err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if v, _ := en.Root(); v != 20 {
		t.Fatalf("5*4 = %d", v)
	}
}

func TestValidationErrors(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	root := e.Tree().Root

	l, _, err := en.Grow(root, dyntc.OpAdd(ring), 3, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if _, _, err := en.Grow(root, dyntc.OpAdd(ring), 1, 2); !errors.Is(err, engine.ErrNotLeaf) {
		t.Fatalf("grow internal: %v", err)
	}
	if err := en.SetLeaf(root, 9); !errors.Is(err, engine.ErrNotLeaf) {
		t.Fatalf("set-leaf internal: %v", err)
	}
	if err := en.SetOp(l, dyntc.OpMul(ring)); !errors.Is(err, engine.ErrNotInternal) {
		t.Fatalf("set-op leaf: %v", err)
	}
	if err := en.Collapse(l, 0); !errors.Is(err, engine.ErrNotInternal) {
		t.Fatalf("collapse leaf: %v", err)
	}
	if _, err := en.ValueID(99); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("value bad id: %v", err)
	}
	if _, err := en.ValueID(-1); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("value negative id: %v", err)
	}
	// Collapse deletes l's sibling pair; the dead node is then rejected.
	if _, _, err := en.Grow(l, dyntc.OpAdd(ring), 5, 6); err != nil {
		t.Fatalf("grow l: %v", err)
	}
	if err := en.Collapse(l, 7); err != nil {
		t.Fatalf("collapse l: %v", err)
	}
	// root now has children (l=7, sibling=4); collapse root, killing l.
	if err := en.Collapse(root, 11); err != nil {
		t.Fatalf("collapse root: %v", err)
	}
	if err := en.SetLeaf(l, 1); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("set dead leaf: %v", err)
	}
	if v, _ := en.Root(); v != 11 {
		t.Fatalf("root after collapse = %d", v)
	}
	if en.Stats().Errors == 0 {
		t.Fatal("validation errors not counted")
	}
}

func TestIDAddressedAPI(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	lID, rID, err := en.GrowID(e.Tree().Root.ID, dyntc.OpAdd(ring), 3, 4)
	if err != nil {
		t.Fatalf("GrowID: %v", err)
	}
	if err := en.SetLeafID(lID, 10); err != nil {
		t.Fatalf("SetLeafID: %v", err)
	}
	if v, err := en.ValueID(rID); err != nil || v != 4 {
		t.Fatalf("ValueID(r) = %d, %v", v, err)
	}
	if err := en.SetOpID(e.Tree().Root.ID, dyntc.OpMul(ring)); err != nil {
		t.Fatalf("SetOpID: %v", err)
	}
	if v, _ := en.Root(); v != 40 {
		t.Fatalf("10*4 = %d", v)
	}
	if err := en.CollapseID(e.Tree().Root.ID, 3); err != nil {
		t.Fatalf("CollapseID: %v", err)
	}
	if v, _ := en.Root(); v != 3 {
		t.Fatalf("root = %d", v)
	}
}

// TestCoalescing checks the acceptance criterion mechanism directly: many
// requests submitted while the executor is busy coalesce, so the mean
// executed batch size exceeds 1.
func TestCoalescing(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}

	// Hold the executor inside a barrier so everything below lands in one
	// flush.
	release := make(chan struct{})
	barrier := make(chan struct{})
	go func() {
		_ = en.Query(func(*dyntc.Expr) { close(barrier); <-release })
	}()
	<-barrier

	const n = 256
	futs := make([]*dyntc.Future, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, en.SetLeafAsync(l, int64(i)))
	}
	close(release)
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("SetLeaf: %v", err)
		}
	}
	if v, _ := en.Root(); v != n-1+4 {
		t.Fatalf("root = %d, want %d", v, n-1+4)
	}
	st := en.Stats()
	if st.MeanFlush() <= 1 {
		t.Fatalf("mean flush %.2f, want > 1 (stats %+v)", st.MeanFlush(), st)
	}
	if st.MaxFlush < n {
		t.Fatalf("max flush %d, want >= %d", st.MaxFlush, n)
	}
}

// TestCollapseBehindGrowSameFlush: a collapse submitted right behind the
// grow that makes its node internal lands in the same flush, and must be
// validated against the grown tree (submission order), not the pre-flush
// one where the node is still a leaf.
func TestCollapseBehindGrowSameFlush(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)

	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}

	// Hold the executor inside a barrier so both requests land in one
	// flush.
	release := make(chan struct{})
	barrier := make(chan struct{})
	go func() {
		_ = en.Query(func(*dyntc.Expr) { close(barrier); <-release })
	}()
	<-barrier

	fg := en.GrowAsync(l, dyntc.OpMul(ring), 6, 7)
	fc := en.CollapseAsync(l, 5)
	close(release)
	if _, _, err := fg.Pair(); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := fc.Wait(); err != nil {
		t.Fatalf("collapse behind its own grow: %v", err)
	}
	if v, _ := en.Root(); v != 5+4 {
		t.Fatalf("root = %d, want %d", v, 5+4)
	}
}

func TestWindowCoalescing(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{Window: 20 * time.Millisecond})
	ring := dyntc.ModRing(mod)
	l, r, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 0)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	before := en.Stats().Flushes
	f1 := en.SetLeafAsync(l, 3)
	f2 := en.SetLeafAsync(r, 4)
	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, _ := en.Root(); v != 7 {
		t.Fatalf("root = %d", v)
	}
	// Both updates should have shared one windowed flush (the window is
	// far longer than two back-to-back submits).
	if got := en.Stats().Flushes - before; got > 2 {
		t.Fatalf("flushes = %d, want <= 2", got)
	}
}

func TestCloseSemantics(t *testing.T) {
	ring := dyntc.ModRing(mod)
	e := dyntc.NewExpr(ring, 1, dyntc.WithSeed(42))
	en := e.Serve(dyntc.BatchOptions{})

	var wg sync.WaitGroup
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 3, 4)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = en.SetLeaf(l, int64(i))
		}(i)
	}
	wg.Wait()
	en.Close()
	en.Close() // idempotent
	if err := en.SetLeaf(l, 99); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// The Expr is reclaimed for direct use after Close.
	if v := e.Value(l); v < 0 || v > 31 {
		t.Fatalf("leaf = %d", v)
	}
}

func TestTourQueriesLinearized(t *testing.T) {
	ring := dyntc.ModRing(mod)
	e := dyntc.NewExpr(ring, 1, dyntc.WithSeed(42), dyntc.WithTour())
	root := e.Tree().Root
	l, r := e.Grow(root, dyntc.OpAdd(ring), 3, 4)
	en := e.Serve(dyntc.BatchOptions{})
	t.Cleanup(en.Close)

	if p, err := en.Preorder(root); err != nil || p != 1 {
		t.Fatalf("Preorder(root) = %d, %v", p, err)
	}
	if s, err := en.SubtreeSize(root); err != nil || s != 3 {
		t.Fatalf("SubtreeSize(root) = %d, %v", s, err)
	}
	if a, err := en.LCA(l, r); err != nil || a != root {
		t.Fatalf("LCA = %v, %v", a, err)
	}
}
