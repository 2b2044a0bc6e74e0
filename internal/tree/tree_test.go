package tree

import (
	"testing"
	"testing/quick"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
)

var testRing = semiring.NewMod(1_000_000_007)

func TestSingleLeaf(t *testing.T) {
	tr := New(testRing, 42)
	if tr.Len() != 1 || tr.LeafCount() != 1 {
		t.Fatal("bad counts")
	}
	if tr.Eval() != 42 {
		t.Fatalf("Eval = %d", tr.Eval())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddDeleteChildren(t *testing.T) {
	tr := New(testRing, 10)
	l, r := tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 3, 4)
	if tr.Len() != 3 || tr.LeafCount() != 2 {
		t.Fatal("bad counts after AddChildren")
	}
	if tr.Eval() != 7 {
		t.Fatalf("3+4 = %d", tr.Eval())
	}
	tr.AddChildren(l, semiring.OpMul(testRing), 5, 6)
	// (5*6) + 4 = 34
	if tr.Eval() != 34 {
		t.Fatalf("(5*6)+4 = %d", tr.Eval())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.DeleteChildren(l, 9)
	// 9 + 4 = 13
	if tr.Eval() != 13 {
		t.Fatalf("9+4 = %d", tr.Eval())
	}
	_ = r
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddChildrenPanicsOnInternal(t *testing.T) {
	tr := New(testRing, 1)
	tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 1, 2)
}

func TestDeleteChildrenPanics(t *testing.T) {
	tr := New(testRing, 1)
	tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 1, 2)
	tr.AddChildren(tr.Root.Left, semiring.OpAdd(testRing), 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.DeleteChildren(tr.Root, 0) // left child is internal
}

func TestLeavesOrder(t *testing.T) {
	tr := New(testRing, 0)
	a, b := tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 1, 2)
	c, d := tr.AddChildren(a, semiring.OpAdd(testRing), 3, 4)
	leaves := tr.Leaves()
	want := []*Node{c, d, b}
	if len(leaves) != 3 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("leaf order wrong at %d", i)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, shape := range []Shape{ShapeRandom, ShapeBalanced, ShapeLeftComb, ShapeRightComb} {
		for _, n := range []int{1, 2, 3, 17, 200} {
			tr := Generate(testRing, prng.New(uint64(n)), n, shape)
			if tr.LeafCount() != n {
				t.Fatalf("shape %d: %d leaves, want %d", shape, tr.LeafCount(), n)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("shape %d n=%d: %v", shape, n, err)
			}
		}
	}
}

func TestCombDepth(t *testing.T) {
	tr := Generate(testRing, prng.New(1), 100, ShapeLeftComb)
	depth := 0
	for n := tr.Root; !n.IsLeaf(); n = n.Left {
		depth++
	}
	if depth != 99 {
		t.Fatalf("left comb depth = %d, want 99", depth)
	}
	// Eval must not overflow the stack on deep combs.
	big := Generate(testRing, prng.New(2), 100000, ShapeLeftComb)
	_ = big.Eval()
}

func TestEvalMatchesRecursive(t *testing.T) {
	var rec func(r semiring.Ring, n *Node) int64
	rec = func(r semiring.Ring, n *Node) int64 {
		if n.IsLeaf() {
			return n.Value
		}
		return n.Op.Eval(r, rec(r, n.Left), rec(r, n.Right))
	}
	f := func(seed uint64) bool {
		src := prng.New(seed)
		tr := Generate(testRing, src, 1+int(seed%64), ShapeRandom)
		return tr.Eval() == rec(testRing, tr.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalAtSubtrees(t *testing.T) {
	src := prng.New(5)
	tr := Generate(testRing, src, 50, ShapeRandom)
	for _, n := range tr.Nodes {
		if n == nil || n.IsLeaf() {
			continue
		}
		want := n.Op.Eval(testRing, tr.EvalAt(n.Left), tr.EvalAt(n.Right))
		if got := tr.EvalAt(n); got != want {
			t.Fatalf("EvalAt(%d) = %d, want %d", n.ID, got, want)
		}
	}
}

func TestSiblings(t *testing.T) {
	tr := New(testRing, 0)
	l, r := tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 1, 2)
	if l.Sibling() != r || r.Sibling() != l {
		t.Fatal("sibling links wrong")
	}
	if tr.Root.Sibling() != nil {
		t.Fatal("root has a sibling")
	}
}

func TestSetValueSetOp(t *testing.T) {
	tr := New(testRing, 1)
	tr.AddChildren(tr.Root, semiring.OpAdd(testRing), 2, 3)
	tr.SetValue(tr.Root.Left, 10)
	if tr.Eval() != 13 {
		t.Fatalf("10+3 = %d", tr.Eval())
	}
	tr.SetOp(tr.Root, semiring.OpMul(testRing))
	if tr.Eval() != 30 {
		t.Fatalf("10*3 = %d", tr.Eval())
	}
}

// TestRestoreRejectsChildTwice: a serialized chain in which every internal
// node names one child as both its left and its right is refused at once.
// Walking it would visit the last node 2^depth times.
func TestRestoreRejectsChildTwice(t *testing.T) {
	const depth = 64
	nodes := make([]RestoreNode, depth+1)
	for i := range nodes {
		nodes[i] = RestoreNode{ID: i, Parent: i - 1, Left: i + 1, Right: i + 1}
	}
	nodes[depth].Left, nodes[depth].Right = -1, -1
	if _, err := Restore(semiring.Bool{}, depth+1, nodes); err == nil {
		t.Fatal("restored a node with one child twice")
	}
}
