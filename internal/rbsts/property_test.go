package rbsts

// Property-based and failure-injection tests complementing rbsts_test.go.

import (
	"strings"
	"testing"
	"testing/quick"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
)

// TestQuickActivationClosure: for arbitrary (n, U) the activation marks
// exactly the ancestor closure and releases cleanly.
func TestQuickActivationClosure(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 1 + int(seed%300)
		tr := newIntTree(seed, n)
		u := 1 + src.Intn(min(n, 20))
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
		want := ancestorClosure(leaves)
		if len(act.Nodes) != len(want) {
			return false
		}
		for _, nd := range act.Nodes {
			if !want[nd] {
				return false
			}
		}
		act.Release(m)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInsertOrderPreserved: arbitrary interleavings of gap insertions
// keep payloads in the order a slice model predicts.
func TestQuickInsertOrderPreserved(t *testing.T) {
	f := func(seed uint64, gapsRaw []uint8) bool {
		if len(gapsRaw) == 0 || len(gapsRaw) > 24 {
			return true
		}
		tr := newIntTree(seed, 4)
		model := []int64{0, 1, 2, 3}
		for i, g := range gapsRaw {
			gap := int(g) % (tr.Len() + 1)
			val := int64(1000 + i)
			tr.BatchInsert(nil, []InsertOp[int64]{{Gap: gap, Payloads: []int64{val}}})
			model = append(model[:gap], append([]int64{val}, model[gap:]...)...)
		}
		got := payloadsOf(tr)
		if len(got) != len(model) {
			return false
		}
		for i := range model {
			if got[i] != model[i] {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestGapNodeIsLCAAfterChurn: the gap↔node correspondence (which the
// contraction schedule depends on) survives arbitrary mutation sequences.
// Validate() already checks it; this test adds churn with larger batches.
func TestGapNodeIsLCAAfterChurn(t *testing.T) {
	src := prng.New(404)
	tr := newIntTree(405, 64)
	for step := 0; step < 60; step++ {
		var ops []InsertOp[int64]
		for i := 0; i < 1+src.Intn(4); i++ {
			ops = append(ops, InsertOp[int64]{Gap: src.Intn(tr.Len() + 1), Payloads: []int64{int64(step)}})
		}
		tr.BatchInsert(nil, ops)
		k := 1 + src.Intn(min(5, tr.Len()-1))
		tr.BatchDelete(nil, pickDistinct(src, tr, k))
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func pickDistinct(src *prng.Source, tr *Tree[int64, int64], k int) []*Node[int64, int64] {
	seen := map[int]bool{}
	var out []*Node[int64, int64]
	for len(out) < k {
		i := src.Intn(tr.Len())
		if !seen[i] {
			seen[i] = true
			out = append(out, tr.LeafAt(i))
		}
	}
	return out
}

// TestValidateCatchesCorruption injects targeted corruption and checks the
// validator reports each kind.
func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Tree[int64, int64] { return newIntTree(1, 32) }

	t.Run("leaf-count", func(t *testing.T) {
		tr := mk()
		tr.Root().leaves++
		if tr.Validate() == nil {
			t.Fatal("corrupted leaf count not detected")
		}
	})
	t.Run("height", func(t *testing.T) {
		tr := mk()
		tr.Root().height += 3
		if tr.Validate() == nil {
			t.Fatal("corrupted height not detected")
		}
	})
	t.Run("depth", func(t *testing.T) {
		tr := mk()
		tr.Root().Left().depth = 7
		if tr.Validate() == nil {
			t.Fatal("corrupted depth not detected")
		}
	})
	t.Run("active-leak", func(t *testing.T) {
		tr := mk()
		tr.Root().Left().active = 1
		if tr.Validate() == nil {
			t.Fatal("leaked ACTIVE flag not detected")
		}
	})
	t.Run("list-links", func(t *testing.T) {
		tr := mk()
		h := tr.Head()
		h.next, h.Next().prev = h.Next().next, 0
		if tr.Validate() == nil {
			t.Fatal("broken leaf list not detected")
		}
	})
	t.Run("gap-node", func(t *testing.T) {
		tr := mk()
		tr.Head().gapNode = tr.root
		if tr.Validate() == nil {
			t.Fatal("bad gap node not detected")
		}
	})
	t.Run("shortcut-target", func(t *testing.T) {
		tr := mk()
		// Find a node with shortcuts and corrupt one entry.
		var victim *Node[int64, int64]
		var walk func(v *Node[int64, int64])
		walk = func(v *Node[int64, int64]) {
			if victim != nil || v == nil {
				return
			}
			if len(tr.shortcuts(v)) > 1 {
				victim = v
				return
			}
			if !v.IsLeaf() {
				walk(v.Left())
				walk(v.Right())
			}
		}
		walk(tr.Root())
		if victim == nil {
			t.Skip("tree too small for shortcuts")
		}
		sc := tr.shortcuts(victim)
		sc[len(sc)-1] = victim.id
		if tr.Validate() == nil {
			t.Fatal("corrupted shortcut not detected")
		}
	})
	t.Run("link-to-freed", func(t *testing.T) {
		tr := mk()
		gone := tr.LeafAt(9)
		tr.Delete(nil, gone)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// The deleted leaf's slot is freed; a live link to it is a
		// dangling reference.
		tr.LeafAt(20).gapLeaf = gone.id
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "freed") {
			t.Fatalf("link to a freed node not detected: %v", err)
		}
	})
}

// TestActivationProcessorBound: Theorem 2.1's processor count stays within
// a constant factor of |U|·log n / log(|U|·log n).
func TestActivationProcessorBound(t *testing.T) {
	tr := newIntTree(17, 1<<15)
	src := prng.New(19)
	for _, u := range []int{1, 8, 64} {
		leaves := pickDistinct(src, tr, u)
		m := pram.Sequential()
		act := tr.Activate(m, leaves)
		act.Release(m)
		// Generous constant: procs ≤ 4·|PT(U)|/cutoff + |U| bound proxy.
		if act.Procs > 4*len(act.Nodes) {
			t.Fatalf("|U|=%d: %d processors for %d parse-tree nodes", u, act.Procs, len(act.Nodes))
		}
	}
}

// TestAggregationAcrossRebuilds: sums survive mixed batch churn exactly.
func TestAggregationAcrossRebuilds(t *testing.T) {
	src := prng.New(55)
	tr := newIntTree(56, 100)
	for step := 0; step < 80; step++ {
		tr.BatchInsert(nil, []InsertOp[int64]{{Gap: src.Intn(tr.Len() + 1), Payloads: []int64{src.Int63() % 1000}}})
		if src.Intn(2) == 0 {
			tr.BatchDelete(nil, pickDistinct(src, tr, 1))
		}
		if got, want := tr.Root().Sum(), tr.SumOracle(); got != want {
			t.Fatalf("step %d: sum %d want %d", step, got, want)
		}
	}
}
