package engine_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/engine"
	"dyntc/internal/replog"
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

// TestPrefixOrderSameLeaf: a wave is the longest conflict-free prefix of
// the flush, so a read sees every op submitted before it. The second
// set-leaf conflicts with the first and starts the next wave; the root
// read behind it must wait for it too, and read the leaf at 2.
func TestPrefixOrderSameLeaf(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatal(err)
	}

	release := holdFlush(t, en)
	f1 := en.SetLeafIDAsync(l.ID, 1)
	f2 := en.SetLeafIDAsync(l.ID, 2)
	fr := en.RootAsync()
	release()

	for _, f := range []*dyntc.Future{f1, f2} {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := fr.Value(); err != nil || v != 2+4 {
		t.Fatalf("root after set-leaf 1, set-leaf 2 = %d, %v; want %d", v, err, 2+4)
	}
}

// TestDisjointWriteWaitsBehindConflict: a write on an untouched node
// queued behind a conflicting pair does not jump into the first wave. The
// flush l=1, l=2, m=3, m=4 runs as three waves, {l=1}, {l=2, m=3}, {m=4},
// and each wave's record holds exactly those writes.
func TestDisjointWriteWaitsBehindConflict(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, m, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var waves [][]replog.Op
	en.SetWaveTap(func(w dyntc.Wave) { waves = append(waves, w.Ops) })

	release := holdFlush(t, en)
	before := en.Stats().Waves // the holding barrier's wave is counted
	var futs []*dyntc.Future
	for _, set := range []struct{ id, v int }{{l.ID, 1}, {l.ID, 2}, {m.ID, 3}, {m.ID, 4}} {
		futs = append(futs, en.SetLeafIDAsync(set.id, int64(set.v)))
	}
	release()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := en.Stats().Waves - before; got != 3 {
		t.Fatalf("waves = %d, want 3 ({l=1}, {l=2, m=3}, {m=4})", got)
	}
	want := [][]replog.Op{
		{{Kind: replog.OpSetLeaf, Node: l.ID, Value: 1}},
		{{Kind: replog.OpSetLeaf, Node: l.ID, Value: 2}, {Kind: replog.OpSetLeaf, Node: m.ID, Value: 3}},
		{{Kind: replog.OpSetLeaf, Node: m.ID, Value: 4}},
	}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("wave records %+v, want %+v", waves, want)
	}
	if v, _ := en.Root(); v != 2+4 {
		t.Fatalf("root = %d, want %d", v, 2+4)
	}
}

// TestApplyOneRequest: one Apply is one request with one future, whose
// ops run in order and count one each in Requests. A grow's result names
// the new leaves, and a later op of the same request may address them.
func TestApplyOneRequest(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	add := dyntc.OpAdd(ring)
	root := e.Tree().Root.ID
	before := en.Stats().Requests
	f := en.Apply(dyntc.TraceContext{}, []dyntc.WaveOp{
		{Kind: replog.OpGrow, Node: root, A: add.A, B: add.B, C: add.C, Left: 3, Right: 4},
		{Kind: replog.OpSetLeaf, Node: 1, Value: 10}, // the grow's left leaf
		{Kind: replog.OpValue, Node: root},
		{Kind: replog.OpSetLeaf, Node: root, Value: 1}, // root is internal now
		{Kind: replog.OpRoot},
	})
	res, err := f.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].Err != nil || res[0].Pair[0].ID != 1 || res[0].Pair[1].ID != 2 {
		t.Fatalf("grow result %+v", res)
	}
	if res[1].Err != nil || res[2].Err != nil || res[2].Value != 14 {
		t.Fatalf("set-leaf then value = %+v, %+v; want value 14", res[1], res[2])
	}
	if !errors.Is(res[3].Err, engine.ErrNotLeaf) {
		t.Fatalf("set-leaf on the grown root: %v", res[3].Err)
	}
	if res[4].Err != nil || res[4].Value != 14 {
		t.Fatalf("root read %+v, want 14", res[4])
	}
	if err := f.Wait(); !errors.Is(err, engine.ErrNotLeaf) {
		t.Fatalf("Wait = %v, want the first failed op's error", err)
	}
	f.Recycle()
	if got := en.Stats().Requests - before; got != 5 {
		t.Fatalf("Requests moved by %d, want 5 (one per op)", got)
	}
}

// TestFlushHoldsQueueOps: a flush holds at most Queue ops. A request that
// does not fit behind the ones already collected opens the next flush,
// and a request larger than Queue runs as a flush of its own.
func TestFlushHoldsQueueOps(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{Queue: 4})
	ring := dyntc.ModRing(mod)
	l, r, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	release := holdFlush(t, en)
	before := en.Stats().Flushes // the holding barrier's flush is counted
	big := make([]dyntc.WaveOp, 6)
	for i := range big {
		big[i] = dyntc.WaveOp{Kind: replog.OpSetLeaf, Node: l.ID, Value: int64(i)}
	}
	futs := []*dyntc.Future{
		en.SetLeafIDAsync(r.ID, 1),
		en.Apply(dyntc.TraceContext{}, big),
		en.SetLeafIDAsync(r.ID, 2),
	}
	release()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := en.Stats()
	if got := st.Flushes - before; got != 3 || st.MaxFlush != 6 {
		t.Fatalf("flushes %d, max flush %d; want 3 ({r=1}, the 6-op request, {r=2}) and 6", got, st.MaxFlush)
	}
	if v, _ := en.Root(); v != 5+2 {
		t.Fatalf("root = %d, want %d", v, 5+2)
	}
}

// TestSealedWriteSurvivesPoison: a write is acknowledged once its wave is
// sealed and logged, before the read-only wave behind it runs. A fault
// injected on that held-read wave poisons the engine, yet the sealed
// write reports success. A request that mixes a sealed write with a held
// read keeps the write's result and fails only the read, and a request
// none of whose ops ran fails as a whole.
func TestSealedWriteSurvivesPoison(t *testing.T) {
	in := dyntc.NewFaultInjector(1)
	en, e := newEngine(t, 1, dyntc.BatchOptions{Faults: in})
	ring := dyntc.ModRing(mod)
	l, m, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4) // wave 1
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]replog.Op
	en.SetWaveTap(func(w dyntc.Wave) { logged = append(logged, w.Ops) })

	release := holdFlush(t, en) // wave 2
	// Wave 3 writes l and m; wave 4, the held reads of l, fails.
	in.Add(dyntc.FaultRule{Site: "engine.wave", After: 3, Err: dyntc.ErrFaultInjected, Times: 1})
	write := en.SetLeafIDAsync(l.ID, 7)
	mixed := en.Apply(dyntc.TraceContext{}, []dyntc.WaveOp{
		{Kind: replog.OpSetLeaf, Node: m.ID, Value: 9},
		{Kind: replog.OpValue, Node: l.ID},
	})
	read := en.ValueIDAsync(l.ID)
	release()

	if err := write.Wait(); err != nil {
		t.Fatalf("sealed write: %v, want nil", err)
	}
	res, err := mixed.Results()
	if err != nil || res[0].Err != nil || !errors.Is(res[1].Err, engine.ErrPoisoned) {
		t.Fatalf("mixed request: %v, results %+v; want the set-leaf to succeed and the read to fail poisoned", err, res)
	}
	if _, err := read.Value(); !errors.Is(err, engine.ErrPoisoned) {
		t.Fatalf("held read: %v, want ErrPoisoned", err)
	}
	if _, err := read.Results(); !errors.Is(err, engine.ErrPoisoned) {
		t.Fatalf("unrun request: request error %v, want ErrPoisoned", err)
	}
	want := [][]replog.Op{{{Kind: replog.OpSetLeaf, Node: l.ID, Value: 7}, {Kind: replog.OpSetLeaf, Node: m.ID, Value: 9}}}
	if !reflect.DeepEqual(logged, want) || in.Firings("engine.wave") != 1 {
		t.Fatalf("logged %+v (want %+v), firings %d", logged, want, in.Firings("engine.wave"))
	}
}

// TestWriteAckedBeforeHeldReads: a write's future resolves right after
// its wave is sealed, not after the reads behind it. The held-read wave
// is stalled by an injected delay; the write must be acknowledged while
// the read behind it is still waiting.
func TestWriteAckedBeforeHeldReads(t *testing.T) {
	in := dyntc.NewFaultInjector(1)
	en, e := newEngine(t, 1, dyntc.BatchOptions{Faults: in})
	ring := dyntc.ModRing(mod)
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4) // wave 1
	if err != nil {
		t.Fatal(err)
	}

	release := holdFlush(t, en) // wave 2
	// Wave 3 writes l; wave 4, the held read of l, stalls.
	in.Add(dyntc.FaultRule{Site: "engine.wave", After: 3, Latency: time.Second, Times: 1})
	write := en.SetLeafIDAsync(l.ID, 7)
	read := en.ValueIDAsync(l.ID)
	release()

	<-write.Done()
	select {
	case <-read.Done():
		t.Fatal("the write was acknowledged only after the held read ran")
	default:
	}
	if err := write.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, err := read.Value(); err != nil || v != 7 {
		t.Fatalf("held read = %d, %v; want 7", v, err)
	}
}

// TestRecordCarriesKindFields: a wave's record holds only the fields each
// op's kind carries, whatever else the caller set, so stray fields never
// reach the log or its checksum.
func TestRecordCarriesKindFields(t *testing.T) {
	en, e := newEngine(t, 1, dyntc.BatchOptions{})
	ring := dyntc.ModRing(mod)
	l, _, err := en.Grow(e.Tree().Root, dyntc.OpAdd(ring), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]replog.Op
	en.SetWaveTap(func(w dyntc.Wave) { logged = append(logged, w.Ops) })
	stray := dyntc.WaveOp{Kind: replog.OpSetLeaf, Node: l.ID, Value: 5, A: 1, B: 2, C: 3, Left: 6, Right: 7, LeftID: 8, RightID: 9}
	if err := en.Apply(dyntc.TraceContext{}, []dyntc.WaveOp{stray}).Wait(); err != nil {
		t.Fatal(err)
	}
	want := [][]replog.Op{{{Kind: replog.OpSetLeaf, Node: l.ID, Value: 5}}}
	if !reflect.DeepEqual(logged, want) {
		t.Fatalf("logged %+v, want %+v", logged, want)
	}
}
