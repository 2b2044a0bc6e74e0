package engine_test

import (
	"errors"
	"sync"
	"testing"

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
	if _, err := en.ValueIDAsync(99).Value(); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("value bad id: %v", err)
	}
	if _, err := en.ValueIDAsync(-1).Value(); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("value negative id: %v", err)
	}
	// A handle of another tree fails even where its ID is live here.
	if err := en.SetLeaf(dyntc.NewExpr(ring, 1).Tree().Root, 9); !errors.Is(err, engine.ErrDeadNode) {
		t.Fatalf("set-leaf foreign handle: %v", err)
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

	l, r, err := en.GrowIDAsync(e.Tree().Root.ID, dyntc.OpAdd(ring), 3, 4).Pair()
	if err != nil {
		t.Fatalf("GrowIDAsync: %v", err)
	}
	if err := en.SetLeafIDAsync(l.ID, 10).Wait(); err != nil {
		t.Fatalf("SetLeafIDAsync: %v", err)
	}
	if v, err := en.ValueIDAsync(r.ID).Value(); err != nil || v != 4 {
		t.Fatalf("ValueIDAsync(r) = %d, %v", v, err)
	}
	if err := en.SetOpIDAsync(e.Tree().Root.ID, dyntc.OpMul(ring)).Wait(); err != nil {
		t.Fatalf("SetOpIDAsync: %v", err)
	}
	if v, _ := en.RootAsync().Value(); v != 40 {
		t.Fatalf("10*4 = %d", v)
	}
	if err := en.CollapseIDAsync(e.Tree().Root.ID, 3).Wait(); err != nil {
		t.Fatalf("CollapseIDAsync: %v", err)
	}
	if v, _ := en.Root(); v != 3 {
		t.Fatalf("root = %d", v)
	}
}

// TestCoalescing checks the acceptance criterion mechanism directly: many
// requests submitted while the executor is busy coalesce, so the mean
// executed batch size exceeds 1, and the executor takes everything
// queued as one flush (n is above 1024, so a per-flush cap would show).
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

	const n = 2048
	futs := make([]*dyntc.Future, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, en.SetLeafIDAsync(l.ID, int64(i)))
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

	fg := en.GrowIDAsync(l.ID, dyntc.OpMul(ring), 6, 7)
	fc := en.CollapseIDAsync(l.ID, 5)
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

	var p, s int
	var a *dyntc.Node
	if err := en.Query(func(e *dyntc.Expr) { p, s, a = e.Preorder(root), e.SubtreeSize(root), e.LCA(l, r) }); err != nil {
		t.Fatal(err)
	}
	if p != 1 || s != 3 || a != root {
		t.Fatalf("Preorder(root) = %d, SubtreeSize(root) = %d, LCA = %v", p, s, a)
	}
}
