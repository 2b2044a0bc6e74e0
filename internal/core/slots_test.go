package core

// Tests of the flat trace state: the packed-key worklist against a
// container/heap reference, the cell table under churn, the record
// arena's size, reuse and allocations, and the per-record cost benchmark
// of a structural wave.

import (
	"container/heap"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"dyntc/internal/arena"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// refHeap is the historical worklist: container/heap over records ordered
// by (Round, V's ID), comparing through the pointers.
type refHeap []*Record

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].Round != h[j].Round {
		return h[i].Round < h[j].Round
	}
	return h[i].vid < h[j].vid
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*Record)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
}

// TestWorklistMatchesContainerHeap drives the worklist and the reference
// with the same random interleaving of pushes, pops and re-pushes of
// popped records, over multisets with many equal rounds. Every pop must
// return the reference's record, and draining a batch pushed at once must
// come out in sortRecords order.
func TestWorklistMatchesContainerHeap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		src := prng.New(seed)
		n := 200 + src.Intn(800)
		recs := make([]*Record, n)
		for i := range recs {
			recs[i] = &Record{V: cellRef(i + 1), vid: int32(i), Round: int32(src.Intn(12))}
		}

		var w worklist
		ref := &refHeap{}
		var popped []*Record
		pop := func(step int) {
			key, got := w.pop()
			want := heap.Pop(ref).(*Record)
			if got != want {
				t.Fatalf("seed %d step %d: popped (%d,%d), reference (%d,%d)",
					seed, step, got.Round, got.V-1, want.Round, want.V-1)
			}
			if key != timeKey(got) {
				t.Fatalf("seed %d step %d: key %x, record packs to %x", seed, step, key, timeKey(got))
			}
			popped = append(popped, got)
		}
		next := 0
		for step := 0; step < 4*n; step++ {
			switch c := src.Intn(4); {
			case c < 2 && next < n:
				w.push(recs[next])
				heap.Push(ref, recs[next])
				next++
			case c == 2 && len(popped) > 0:
				// Re-push a record that already ran, as a consumer woken twice is.
				i := src.Intn(len(popped))
				r := popped[i]
				popped[i] = popped[len(popped)-1]
				popped = popped[:len(popped)-1]
				w.push(r)
				heap.Push(ref, r)
			case len(w) > 0:
				pop(step)
			}
			if len(w) != ref.Len() {
				t.Fatalf("seed %d step %d: %d queued, reference %d", seed, step, len(w), ref.Len())
			}
		}
		for len(w) > 0 {
			pop(-1)
		}

		// One batch, drained: exactly the order simulate() executes in.
		w.reset()
		for _, i := range src.Perm(n) {
			w.push(recs[i])
		}
		want := append([]*Record(nil), recs...)
		sortRecords(want)
		for i, r := range want {
			if _, got := w.pop(); got != r {
				t.Fatalf("seed %d: drain position %d is (%d,%d), sortRecords has (%d,%d)",
					seed, i, got.Round, got.V-1, r.Round, r.V-1)
			}
		}
		if len(w) != 0 || cap(w) == 0 {
			t.Fatalf("seed %d: drained list has len %d cap %d", seed, len(w), cap(w))
		}
		for _, it := range w[:cap(w)] {
			if it.r != nil {
				t.Fatalf("seed %d: drained list still holds a record", seed)
			}
		}
	}
}

// TestSlotTableGrowth churns grow/collapse waves until T has issued ten
// times the tree's initial node count, the tree drifting up slowly,
// checking the cell invariants after every wave and the full trace oracle
// whenever the ID map reallocates and at the end. Cells in use must equal
// the live nodes throughout, and the table must never hold more cells
// than the tree ever had live nodes: freed cells are reused, not
// abandoned as IDs are.
func TestSlotTableGrowth(t *testing.T) {
	ring := semiring.NewMod(1_000_003)
	src := prng.New(77)
	tr := tree.Generate(ring, src, 64, tree.ShapeRandom)
	c := New(tr, 78, nil)
	initial := len(tr.Nodes)
	peak := tr.Len()
	check := func(wave int, what string) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatalf("wave %d %s: %v", wave, what, err)
		}
		peak = max(peak, tr.Len())
		if inUse := len(c.cells) - len(c.free); inUse != tr.Len() {
			t.Fatalf("wave %d %s: %d cells in use for %d live nodes", wave, what, inUse, tr.Len())
		}
		if len(c.cells) > peak {
			t.Fatalf("wave %d %s: %d cells, peak live count %d", wave, what, len(c.cells), peak)
		}
	}

	regrowths, lastCap := 0, cap(c.cellOf)
	for wave := 0; len(tr.Nodes) < 10*initial; wave++ {
		leaves := tr.Leaves()
		k := 1 + src.Intn(4)
		ops := make([]AddOp, 0, k)
		for _, i := range src.Perm(len(leaves))[:k] {
			ops = append(ops, AddOp{Leaf: leaves[i], Op: semiring.OpAdd(ring),
				LeftVal: int64(src.Intn(1000)), RightVal: int64(src.Intn(1000))})
		}
		pairs := c.AddLeaves(ops)
		check(wave, "grow")
		if cap(c.cellOf) != lastCap {
			regrowths++
			lastCap = cap(c.cellOf)
			if err := c.validateTrace(); err != nil {
				t.Fatalf("wave %d, ID map reallocated to %d: %v", wave, lastCap, err)
			}
		}
		// Collapse what was grown (every second wave leaves one cherry
		// standing so the live tree drifts too).
		rm := make([]RemoveOp, 0, k)
		for i, p := range pairs {
			if i == 0 && wave%2 == 1 {
				continue
			}
			rm = append(rm, RemoveOp{Node: p[0].Parent, NewValue: int64(src.Intn(1000))})
		}
		c.RemoveLeaves(rm)
		check(wave, "collapse")
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("wave %d: root %d want %d", wave, got, want)
		}
	}
	if regrowths < 3 {
		t.Fatalf("the ID map reallocated %d times, want at least 3", regrowths)
	}
	if len(c.cellOf) != len(tr.Nodes) || cap(c.cellOf) > cap(tr.Nodes) {
		t.Fatalf("ID map len %d cap %d, T.Nodes len %d cap %d",
			len(c.cellOf), cap(c.cellOf), len(tr.Nodes), cap(tr.Nodes))
	}
	if err := c.validateTrace(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceStateSizes pins a cell at 64 bytes at most (it is paid for
// every live node, and a participant of a re-executed record is one cache
// line), the ID map at 4 bytes per ID (it is paid for every ID ever
// issued), a record at 128 and a PT node at 64, and checks that neither a
// cell nor a record holds a pointer: the collector then never scans the
// cell table or the record arena.
func TestTraceStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 64 {
		t.Errorf("cell is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof(cellRef(0)); got != 4 {
		t.Errorf("the ID map holds %d bytes per ID, want 4", got)
	}
	if got := unsafe.Sizeof(Record{}); got > 128 {
		t.Errorf("Record is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(ptNode{}); got > 64 {
		t.Errorf("PT node is %d bytes, want at most 64", got)
	}
	for _, v := range []any{cell{}, Record{}} {
		if path := pointerField(reflect.TypeOf(v), ""); path != "" {
			t.Errorf("%T holds a pointer at %s", v, path)
		}
	}
}

// pointerField returns the path of the first field of typ that is or
// holds a pointer, or "" when there is none.
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return path + " (" + typ.String() + ")"
}

// TestSimulateAllocs: re-simulating a warm contraction rewrites the arena
// in place, allocating only its scratch arrays (the overlay and the
// sorted gaps) — not a record per gap.
func TestSimulateAllocs(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(9), 4096, tree.ShapeRandom)
	c := New(tr, 10, nil)
	root := c.RootValue()
	allocs := testing.AllocsPerRun(5, c.simulate)
	t.Logf("warm simulate: %.0f allocations", allocs)
	if allocs > 4 {
		t.Fatalf("simulate made %.0f allocations, want at most 4", allocs)
	}
	if c.RootValue() != root {
		t.Fatalf("root %d after re-simulation, want %d", c.RootValue(), root)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyWaveAllocs: once warm, a k = 16 grow+collapse pair on a
// 4 096-leaf contraction allocates only the 32 new tree nodes, AddLeaves'
// returned slice and the occasional growth of T.Nodes and the ID map: PT nodes, shortcut lists, records and every per-wave list are
// reused. Before PT nodes went by value the pair made ≈3 100.
func TestSteadyWaveAllocs(t *testing.T) {
	const n, k = 4096, 16
	src := prng.New(41)
	tr := tree.Generate(testRing, src, n, tree.ShapeRandom)
	c := New(tr, 42, nil)
	leaves := tr.Leaves()
	add := make([]AddOp, k)
	rm := make([]RemoveOp, k)
	pair := func() {
		for j := 0; j < k; j++ {
			x := j + src.Intn(len(leaves)-j)
			leaves[j], leaves[x] = leaves[x], leaves[j]
			add[j] = AddOp{Leaf: leaves[j], Op: semiring.OpAdd(testRing), LeftVal: int64(j), RightVal: 7}
			rm[j] = RemoveOp{Node: leaves[j], NewValue: int64(j)}
		}
		c.AddLeaves(add)
		c.RemoveLeaves(rm)
	}
	for i := 0; i < 50; i++ {
		pair()
	}
	allocs := testing.AllocsPerRun(20, pair)
	t.Logf("warm k=%d wave pair: %.0f allocations", k, allocs)
	if allocs > 64 {
		t.Fatalf("a warm k=%d wave pair made %.0f allocations, want at most 64", k, allocs)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}

// TestSetValuesAllocs: a warm 8-leaf SetValues on a 4 096-leaf
// contraction activates PT(U) in the tree's own storage and heals the
// wound in the pass's, so it allocates (almost) nothing.
func TestSetValuesAllocs(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(43), 4096, tree.ShapeRandom)
	c := New(tr, 44, nil)
	leaves := tr.Leaves()[:8]
	values := make([]int64, len(leaves))
	v := int64(0)
	set := func() {
		for i := range values {
			v++
			values[i] = v
		}
		c.SetValues(leaves, values)
	}
	set()
	allocs := testing.AllocsPerRun(20, set)
	t.Logf("SetValues of %d leaves: %.0f allocations", len(leaves), allocs)
	if allocs > 4 {
		t.Fatalf("SetValues of %d leaves made %.0f allocations, want at most 4", len(leaves), allocs)
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}

// TestArenaReusesKilledRecords churns grow+collapse pairs of k = 16 leaves
// through ten times the tree size at a steady size. Every record a wave
// kills is reused by a later one, so beyond one index per leaf the arena
// only ever holds the kills of the last wave (at most 2k) on its free
// list: without reuse it would hand out ≈3k more indices per pair until
// a fallback re-simulation reset it.
func TestArenaReusesKilledRecords(t *testing.T) {
	const n, k = 1024, 16
	src := prng.New(21)
	tr := tree.Generate(testRing, src, n, tree.ShapeRandom)
	c := New(tr, 22, nil)
	leaves := tr.Leaves()
	add := make([]AddOp, k)
	rm := make([]RemoveOp, k)
	for wave := 0; wave < 10*n/k; wave++ {
		for j := 0; j < k; j++ {
			x := j + src.Intn(len(leaves)-j)
			leaves[j], leaves[x] = leaves[x], leaves[j]
			add[j] = AddOp{Leaf: leaves[j], Op: semiring.OpMul(testRing), LeftVal: int64(wave), RightVal: int64(j)}
			rm[j] = RemoveOp{Node: leaves[j], NewValue: int64(wave + j)}
		}
		c.AddLeaves(add)
		c.RemoveLeaves(rm)
		if limit := recID(tr.LeafCount() + 4*k); c.recs.End() > limit {
			t.Fatalf("wave %d: arena handed out %d indices for %d leaves, want at most %d",
				wave, c.recs.End(), tr.LeafCount(), limit)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}

// TestArenaShrinksOnResimulate collapses an 8 192-leaf tree down to 600
// leaves and re-simulates it: the arena must give back the chunks the
// smaller trace no longer fills. (That Reset also drops them from the
// chunk list's backing array, so the collector can reclaim them, is
// internal/arena's TestResetKeepsOnlyNeededChunks.)
func TestArenaShrinksOnResimulate(t *testing.T) {
	const n, keep = 8192, 600
	tr := tree.Generate(testRing, prng.New(31), n, tree.ShapeRandom)
	c := New(tr, 32, nil)
	if c.recs.Chunks() != n/arena.ChunkLen {
		t.Fatalf("%d chunks for %d leaves", c.recs.Chunks(), n)
	}
	for tr.LeafCount() > keep {
		var rm []RemoveOp
		for _, nd := range tr.Nodes {
			if nd != nil && !nd.IsLeaf() && nd.Left.IsLeaf() && nd.Right.IsLeaf() &&
				len(rm) < tr.LeafCount()-keep {
				rm = append(rm, RemoveOp{Node: nd, NewValue: int64(nd.ID)})
			}
		}
		c.RemoveLeaves(rm)
	}
	c.simulate()
	if got := c.recs.Chunks(); got != 1 {
		t.Fatalf("%d chunks kept for %d leaves, want 1", got, tr.LeafCount())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}

// BenchmarkStructuralWave times one AddLeaves + RemoveLeaves pair of k
// random leaves on a 65 536-leaf random tree: the per-record cost of
// change propagation and the allocations of a wave, without the 45 s
// harness. The collapse undoes the grow, so the tree holds its size.
func BenchmarkStructuralWave(b *testing.B) {
	const n = 1 << 16
	ring := semiring.NewMod(1_000_000_007)
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
			src := prng.New(uint64(k))
			tr := tree.Generate(ring, src, n, tree.ShapeRandom)
			c := New(tr, 97, nil)
			leaves := tr.Leaves()
			add := make([]AddOp, k)
			rm := make([]RemoveOp, k)
			records := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// k distinct leaves: a partial shuffle of the fixed leaf set.
				for j := 0; j < k; j++ {
					x := j + src.Intn(len(leaves)-j)
					leaves[j], leaves[x] = leaves[x], leaves[j]
					add[j] = AddOp{Leaf: leaves[j], Op: semiring.OpAdd(ring), LeftVal: int64(i), RightVal: int64(j)}
					rm[j] = RemoveOp{Node: leaves[j], NewValue: int64(i + j)}
				}
				c.AddLeaves(add)
				records += c.LastHeal().WoundRecords
				c.RemoveLeaves(rm)
				records += c.LastHeal().WoundRecords
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
			if got, want := c.RootValue(), tr.Eval(); got != want {
				b.Fatalf("root %d want %d", got, want)
			}
		})
	}
}
