package rbsts

import (
	"fmt"
	"math"
	"testing"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
)

// newIntTree builds an aggregated (sum monoid) tree over 0..n-1 values.
func newIntTree(seed uint64, n int) *Tree[int64, int64] {
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = int64(i)
	}
	return New[int64, int64](seed,
		func(p int64) int64 { return p },
		func(a, b int64) int64 { return a + b },
		payloads)
}

func payloadsOf(t *Tree[int64, int64]) []int64 {
	var out []int64
	for l := t.Head(); l != nil; l = l.Next() {
		out = append(out, l.Payload())
	}
	return out
}

func TestBuildValidates(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 64, 1000} {
		tr := newIntTree(7, n)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		got := payloadsOf(tr)
		for i, p := range got {
			if p != int64(i) {
				t.Fatalf("n=%d: leaf order wrong at %d: %v", n, i, got)
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newIntTree(1, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != nil || tr.Len() != 0 {
		t.Fatal("empty tree not empty")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := newIntTree(42, 500), newIntTree(42, 500)
	var walkA, walkB []int
	var walk func(v *Node[int64, int64], out *[]int)
	walk = func(v *Node[int64, int64], out *[]int) {
		if v.IsLeaf() {
			*out = append(*out, -1)
			return
		}
		*out = append(*out, v.Left().LeafCount())
		walk(v.Left(), out)
		walk(v.Right(), out)
	}
	walk(a.Root(), &walkA)
	walk(b.Root(), &walkB)
	if len(walkA) != len(walkB) {
		t.Fatal("different shapes from same seed")
	}
	for i := range walkA {
		if walkA[i] != walkB[i] {
			t.Fatal("different shapes from same seed")
		}
	}
}

func TestExpectedDepthLogarithmic(t *testing.T) {
	// Random split trees have expected height ≈ 4.31·ln n. Allow slack.
	for _, n := range []int{1 << 10, 1 << 14} {
		tr := newIntTree(99, n)
		bound := int(8 * math.Log(float64(n)))
		if h := tr.Root().Height(); h > bound {
			t.Fatalf("n=%d height %d exceeds %d", n, h, bound)
		}
	}
}

func TestLeafAtIndexRoundtrip(t *testing.T) {
	tr := newIntTree(5, 300)
	for i := 0; i < 300; i++ {
		l := tr.LeafAt(i)
		if l.Index() != i {
			t.Fatalf("LeafAt(%d).Index() = %d", i, l.Index())
		}
		if l.Payload() != int64(i) {
			t.Fatalf("LeafAt(%d) payload %d", i, l.Payload())
		}
	}
}

func TestLeafAtPanics(t *testing.T) {
	tr := newIntTree(5, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("LeafAt(10) did not panic")
		}
	}()
	tr.LeafAt(10)
}

func TestSumMaintained(t *testing.T) {
	tr := newIntTree(3, 100)
	if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
		t.Fatalf("sum %d want %d", got, want)
	}
	tr.UpdateLeaf(tr.LeafAt(17), 1000)
	if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
		t.Fatalf("after update: sum %d want %d", got, want)
	}
}

func TestBatchUpdateSums(t *testing.T) {
	tr := newIntTree(3, 256)
	m := pram.Sequential()
	leaves := []*Node[int64, int64]{tr.LeafAt(0), tr.LeafAt(100), tr.LeafAt(255)}
	tr.BatchUpdate(m, leaves, []int64{-5, -7, -9})
	if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
		t.Fatalf("sum %d want %d", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestShortcutDepthsGeometric(t *testing.T) {
	for _, d := range []int{1, 2, 3, 10, 100, 1000} {
		ds := shortcutDepths(d)
		if len(ds) == 0 || ds[0] != 0 {
			t.Fatalf("d=%d: first entry %v", d, ds)
		}
		for i := 1; i < len(ds); i++ {
			if ds[i] <= ds[i-1] {
				t.Fatalf("d=%d: depths not strictly increasing: %v", d, ds)
			}
			// Remaining distance shrinks by at most a factor 2/3 (+1 slack).
			remPrev, rem := d-ds[i-1], d-ds[i]
			if rem > remPrev*2/3 {
				t.Fatalf("d=%d: remaining %d -> %d not geometric", d, remPrev, rem)
			}
		}
		if last := ds[len(ds)-1]; last >= d {
			t.Fatalf("d=%d: shortcut to self or below: %v", d, ds)
		}
	}
	if shortcutDepths(0) != nil {
		t.Fatal("shortcutDepths(0) should be nil")
	}
}

// ancestorClosure computes the expected parse tree node set naively.
func ancestorClosure(leaves []*Node[int64, int64]) map[*Node[int64, int64]]bool {
	want := make(map[*Node[int64, int64]]bool)
	for _, l := range leaves {
		for v := l; v != nil; v = v.Parent() {
			want[v] = true
		}
	}
	return want
}

func checkActivation(t *testing.T, tr *Tree[int64, int64], act *Activation[int64, int64], leaves []*Node[int64, int64]) {
	t.Helper()
	want := ancestorClosure(leaves)
	got := make(map[*Node[int64, int64]]bool, len(act.Nodes))
	for _, n := range act.Nodes {
		if got[n] {
			t.Fatal("activation returned a duplicate node")
		}
		got[n] = true
		if !n.IsActive() {
			t.Fatal("returned node not marked active")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("activation marked %d nodes, want %d", len(got), len(want))
	}
	for n := range want {
		if !got[n] {
			t.Fatalf("missing parse tree node at depth %d", n.Depth())
		}
	}
}

func TestActivateMarksExactClosure(t *testing.T) {
	src := prng.New(123)
	for _, n := range []int{1, 2, 10, 257, 4096} {
		tr := newIntTree(uint64(n), n)
		for _, u := range []int{1, 2, 5, 32} {
			if u > n {
				continue
			}
			var leaves []*Node[int64, int64]
			seen := map[int]bool{}
			for len(leaves) < u {
				i := src.Intn(n)
				if !seen[i] {
					seen[i] = true
					leaves = append(leaves, tr.LeafAt(i))
				}
			}
			m := pram.Sequential()
			act := tr.Activate(m, leaves)
			checkActivation(t, tr, act, leaves)
			act.Release(m)
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d u=%d: flags leaked: %v", n, u, err)
			}
		}
	}
}

func TestActivateDuplicateLeaves(t *testing.T) {
	tr := newIntTree(9, 128)
	l := tr.LeafAt(64)
	m := pram.Sequential()
	act := tr.Activate(m, []*Node[int64, int64]{l, l, l})
	checkActivation(t, tr, act, []*Node[int64, int64]{l})
	act.Release(m)
}

func TestNaiveActivateMatches(t *testing.T) {
	tr := newIntTree(11, 1024)
	leaves := []*Node[int64, int64]{tr.LeafAt(3), tr.LeafAt(700), tr.LeafAt(701)}
	m := pram.Sequential()
	act := tr.NaiveActivate(m, leaves)
	checkActivation(t, tr, act, leaves)
	act.Release(m)
}

func TestActivationFasterThanNaive(t *testing.T) {
	// Theorem 2.1: for |U|=1 the shortcut activation runs in
	// O(log(log n)) rounds; the naive walk needs Θ(depth) rounds. Use the
	// deepest leaf of a large tree so the gap is visible at test sizes.
	tr := newIntTree(17, 1<<18)
	leaf := tr.Root()
	for !leaf.IsLeaf() {
		if leaf.Left().Height() >= leaf.Right().Height() {
			leaf = leaf.Left()
		} else {
			leaf = leaf.Right()
		}
	}
	ms := pram.Sequential()
	act := tr.Activate(ms, []*Node[int64, int64]{leaf})
	checkActivation(t, tr, act, []*Node[int64, int64]{leaf})
	act.Release(ms)
	fast := ms.Metrics().Steps

	mn := pram.Sequential()
	nact := tr.NaiveActivate(mn, []*Node[int64, int64]{leaf})
	nact.Release(mn)
	slow := mn.Metrics().Steps

	if fast*2 >= slow {
		t.Fatalf("shortcut activation %d rounds vs naive %d (leaf depth %d): no speedup",
			fast, slow, leaf.Depth())
	}

	// And for batches: rounds ≤ c·log2(|U|·log2 n) at |U| = 1, 16, 256
	// random leaves. Measured 15/19/22 rounds, 3.6/2.3/1.8× the log (the
	// additive constant dominates at |U| = 1); c = 6 leaves ≥ 1.6× headroom.
	src := prng.New(19)
	for _, u := range []int{1, 16, 256} {
		m := pram.Sequential()
		tr.Activate(m, pickDistinct(src, tr, u)).Release(m)
		bound := 6 * math.Log2(float64(u)*math.Log2(float64(tr.Len())))
		rounds := m.Metrics().Steps
		t.Logf("|U|=%d: %d activation rounds (bound %.1f)", u, rounds, bound)
		if float64(rounds) > bound {
			t.Fatalf("|U|=%d: %d activation rounds > 6·log2(|U|·log2 n) = %.1f", u, rounds, bound)
		}
	}
}

func TestActivateParallelMachine(t *testing.T) {
	tr := newIntTree(21, 1<<12)
	var leaves []*Node[int64, int64]
	for i := 0; i < 200; i++ {
		leaves = append(leaves, tr.LeafAt(i*20))
	}
	m := pram.New(4)
	act := tr.Activate(m, leaves)
	checkActivation(t, tr, act, leaves)
	act.Release(m)
}

func TestInsertSingle(t *testing.T) {
	tr := newIntTree(31, 10)
	newLeaves := tr.InsertAfter(nil, tr.LeafAt(4), []int64{100})
	if len(newLeaves) != 1 || newLeaves[0].Payload() != 100 {
		t.Fatalf("bad new leaves %v", newLeaves)
	}
	want := []int64{0, 1, 2, 3, 4, 100, 5, 6, 7, 8, 9}
	got := payloadsOf(tr)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
		t.Fatalf("sum %d want %d", got, want)
	}
}

func TestInsertAtEnds(t *testing.T) {
	tr := newIntTree(33, 5)
	tr.BatchInsert(nil, []InsertOp[int64]{{Gap: 0, Payloads: []int64{-1}}})
	tr.BatchInsert(nil, []InsertOp[int64]{{Gap: tr.Len(), Payloads: []int64{99}}})
	want := []int64{-1, 0, 1, 2, 3, 4, 99}
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", payloadsOf(tr), want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchInsertMultipleGaps(t *testing.T) {
	tr := newIntTree(35, 6)
	rep := tr.BatchInsert(nil, []InsertOp[int64]{
		{Gap: 4, Payloads: []int64{400, 401}},
		{Gap: 0, Payloads: []int64{-10}},
		{Gap: 6, Payloads: []int64{600}},
		{Gap: 4, Payloads: []int64{402}},
	})
	want := []int64{-10, 0, 1, 2, 3, 400, 401, 402, 4, 5, 600}
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", payloadsOf(tr), want)
	}
	// NewLeaves in batch order.
	wantNew := []int64{400, 401, -10, 600, 402}
	if len(rep.NewLeaves) != len(wantNew) {
		t.Fatalf("NewLeaves count %d", len(rep.NewLeaves))
	}
	for i, l := range rep.NewLeaves {
		if l.Payload() != wantNew[i] {
			t.Fatalf("NewLeaves[%d] = %d want %d", i, l.Payload(), wantNew[i])
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	tr := newIntTree(37, 0)
	rep := tr.BatchInsert(nil, []InsertOp[int64]{{Gap: 0, Payloads: []int64{1, 2, 3}}})
	if !rep.FullRebuild {
		t.Fatal("expected full rebuild")
	}
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint([]int64{1, 2, 3}) {
		t.Fatalf("got %v", payloadsOf(tr))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSingle(t *testing.T) {
	tr := newIntTree(41, 10)
	tr.Delete(nil, tr.LeafAt(5))
	want := []int64{0, 1, 2, 3, 4, 6, 7, 8, 9}
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", payloadsOf(tr), want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
		t.Fatalf("sum %d want %d", got, want)
	}
}

func TestDeleteBoundaries(t *testing.T) {
	tr := newIntTree(43, 8)
	tr.Delete(nil, tr.Head())
	tr.Delete(nil, tr.Tail())
	want := []int64{1, 2, 3, 4, 5, 6}
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", payloadsOf(tr), want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newIntTree(45, 6)
	tr.BatchDelete(nil, tr.Leaves())
	if tr.Len() != 0 || tr.Root() != nil {
		t.Fatal("tree not emptied")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// And it can be refilled.
	tr.BatchInsert(nil, []InsertOp[int64]{{Gap: 0, Payloads: []int64{7, 8}}})
	if fmt.Sprint(payloadsOf(tr)) != fmt.Sprint([]int64{7, 8}) {
		t.Fatalf("refill got %v", payloadsOf(tr))
	}
}

func TestDeleteToSingleLeafAndBack(t *testing.T) {
	tr := newIntTree(47, 4)
	leaves := tr.Leaves()
	tr.BatchDelete(nil, leaves[0:3])
	if tr.Len() != 1 || tr.Root() == nil || !tr.Root().IsLeaf() {
		t.Fatalf("expected single-leaf tree, len=%d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Delete(nil, tr.Head())
	if tr.Len() != 0 {
		t.Fatal("expected empty tree")
	}
}

// TestRandomMutationSoak compares the tree against a plain slice model
// across a long random sequence of batch inserts, deletes and updates,
// validating every structural invariant after each step.
func TestRandomMutationSoak(t *testing.T) {
	src := prng.New(1234)
	tr := newIntTree(999, 16)
	model := make([]int64, 16)
	for i := range model {
		model[i] = int64(i)
	}
	nextVal := int64(1000)
	for step := 0; step < 400; step++ {
		switch op := src.Intn(3); {
		case op == 0 || tr.Len() == 0: // insert batch
			nOps := 1 + src.Intn(3)
			var ops []InsertOp[int64]
			type ins struct {
				gap int
				val int64
			}
			var flat []ins
			for i := 0; i < nOps; i++ {
				gap := src.Intn(tr.Len() + 1)
				k := 1 + src.Intn(2)
				var ps []int64
				for j := 0; j < k; j++ {
					ps = append(ps, nextVal)
					flat = append(flat, ins{gap, nextVal})
					nextVal++
				}
				ops = append(ops, InsertOp[int64]{Gap: gap, Payloads: ps})
			}
			rep := tr.BatchInsert(nil, ops)
			if len(rep.NewLeaves) != len(flat) {
				t.Fatalf("step %d: NewLeaves %d want %d", step, len(rep.NewLeaves), len(flat))
			}
			// Apply to model: sort by gap stable (matching tree semantics).
			// Build gap->values in batch order.
			perGap := map[int][]int64{}
			for _, f := range flat {
				perGap[f.gap] = append(perGap[f.gap], f.val)
			}
			var newModel []int64
			for g := 0; g <= len(model); g++ {
				newModel = append(newModel, perGap[g]...)
				if g < len(model) {
					newModel = append(newModel, model[g])
				}
			}
			model = newModel
		case op == 1 && tr.Len() > 0: // delete batch
			k := 1 + src.Intn(min(4, tr.Len()))
			idxSet := map[int]bool{}
			for len(idxSet) < k {
				idxSet[src.Intn(tr.Len())] = true
			}
			var leaves []*Node[int64, int64]
			var newModel []int64
			for i, l := 0, tr.Head(); l != nil; i, l = i+1, l.Next() {
				if idxSet[i] {
					leaves = append(leaves, l)
				} else {
					newModel = append(newModel, model[i])
				}
			}
			tr.BatchDelete(nil, leaves)
			model = newModel
		default: // point update
			if tr.Len() == 0 {
				continue
			}
			i := src.Intn(tr.Len())
			tr.UpdateLeaf(tr.LeafAt(i), nextVal)
			model[i] = nextVal
			nextVal++
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got := payloadsOf(tr)
		if len(got) != len(model) {
			t.Fatalf("step %d: len %d want %d", step, len(got), len(model))
		}
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("step %d: payload[%d]=%d want %d\ngot  %v\nwant %v",
					step, i, got[i], model[i], got, model)
			}
		}
		if tr.Len() > 0 {
			if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
				t.Fatalf("step %d: sum %d want %d", step, got, want)
			}
		}
	}
}

// TestInsertDistribution checks Theorem 2.2's "resulting in a valid RBSTS":
// the mean leaf depth of trees grown by repeated random insertion must
// match the mean leaf depth of freshly built trees of the same size.
func TestInsertDistribution(t *testing.T) {
	const n = 512
	const trials = 60
	grownMean, freshMean := 0.0, 0.0
	src := prng.New(777)
	for trial := 0; trial < trials; trial++ {
		// Grown: start with 1 leaf, insert at random gaps.
		tr := newIntTree(uint64(trial)*2+1, 1)
		for tr.Len() < n {
			gap := src.Intn(tr.Len() + 1)
			tr.BatchInsert(nil, []InsertOp[int64]{{Gap: gap, Payloads: []int64{0}}})
		}
		grownMean += meanLeafDepth(tr)
		fresh := newIntTree(uint64(trial)*2+2, n)
		freshMean += meanLeafDepth(fresh)
	}
	grownMean /= trials
	freshMean /= trials
	// Means over 60 trials of 512 leaves concentrate well; 8% slack.
	if math.Abs(grownMean-freshMean) > 0.08*freshMean {
		t.Fatalf("grown mean depth %.3f vs fresh %.3f", grownMean, freshMean)
	}
}

// TestDeleteDistribution: grow to 2n, randomly delete down to n, compare
// against fresh builds of size n.
func TestDeleteDistribution(t *testing.T) {
	const n = 384
	const trials = 60
	shrunkMean, freshMean := 0.0, 0.0
	src := prng.New(888)
	for trial := 0; trial < trials; trial++ {
		tr := newIntTree(uint64(trial)*2+1, 2*n)
		for tr.Len() > n {
			tr.Delete(nil, tr.LeafAt(src.Intn(tr.Len())))
		}
		shrunkMean += meanLeafDepth(tr)
		fresh := newIntTree(uint64(trial)*2+2, n)
		freshMean += meanLeafDepth(fresh)
	}
	shrunkMean /= trials
	freshMean /= trials
	if math.Abs(shrunkMean-freshMean) > 0.08*freshMean {
		t.Fatalf("shrunk mean depth %.3f vs fresh %.3f", shrunkMean, freshMean)
	}
}

func meanLeafDepth(tr *Tree[int64, int64]) float64 {
	total := 0
	for l := tr.Head(); l != nil; l = l.Next() {
		total += l.Depth()
	}
	return float64(total) / float64(tr.Len())
}

// TestRebuildSizeExpectation checks Theorem 2.2's E[S] = O(log n) per
// insertion: the average rebuild size across many single insertions into a
// large tree must be within a constant factor of ln n.
func TestRebuildSizeExpectation(t *testing.T) {
	const n = 1 << 13
	tr := newIntTree(3141, n)
	src := prng.New(59)
	totalRebuilt := 0
	const inserts = 300
	for i := 0; i < inserts; i++ {
		rep := tr.BatchInsert(nil, []InsertOp[int64]{{Gap: src.Intn(tr.Len() + 1), Payloads: []int64{0}}})
		totalRebuilt += rep.RebuildLeaves
	}
	mean := float64(totalRebuilt) / inserts
	logn := math.Log(float64(n))
	if mean > 6*logn {
		t.Fatalf("mean rebuild size %.1f exceeds 6·ln n = %.1f", mean, 6*logn)
	}

	// Batches (Theorems 2.2/2.3): the mean rebuild of a |U|-leaf batch
	// insert or delete stays ≤ 15·|U|·ln n. The per-batch size is heavy
	// tailed (a root rebuild is Θ(n) with probability Θ(1/n)), hence the
	// generous constant; measured ratios are 1.6–4.8 over |U| = 1, 8, 64
	// and both ops (≥ 3× headroom).
	for _, u := range []int{1, 8, 64} {
		tr := newIntTree(3141, n)
		const trials = 60
		ins, del := 0, 0
		for i := 0; i < trials; i++ {
			ops := make([]InsertOp[int64], u)
			for j := range ops {
				ops[j] = InsertOp[int64]{Gap: src.Intn(tr.Len() + 1), Payloads: []int64{0}}
			}
			ins += tr.BatchInsert(nil, ops).RebuildLeaves
		}
		for i := 0; i < trials; i++ {
			del += tr.BatchDelete(nil, pickDistinct(src, tr, u)).RebuildLeaves
		}
		for op, total := range map[string]int{"insert": ins, "delete": del} {
			ratio := float64(total) / trials / (float64(u) * logn)
			t.Logf("|U|=%d %s: mean rebuild %.2f·|U|·ln n", u, op, ratio)
			if ratio > 15 {
				t.Fatalf("|U|=%d %s: mean rebuild %.1f·|U|·ln n, want ≤ 15", u, op, ratio)
			}
		}
	}
}

func TestStableLeafIdentityAcrossRebuilds(t *testing.T) {
	tr := newIntTree(51, 64)
	marked := tr.LeafAt(20)
	src := prng.New(4)
	for i := 0; i < 100; i++ {
		gap := src.Intn(tr.Len() + 1)
		tr.BatchInsert(nil, []InsertOp[int64]{{Gap: gap, Payloads: []int64{int64(i)}}})
	}
	// The leaf object must still be in the tree with the same payload.
	if marked.Payload() != 20 {
		t.Fatalf("payload changed: %d", marked.Payload())
	}
	found := false
	for l := tr.Head(); l != nil; l = l.Next() {
		if l == marked {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("marked leaf object no longer in tree")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
