package dyntc

import (
	"testing"

	"dyntc/internal/prng"
)

func TestQuickstartFlow(t *testing.T) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(42))
	l, r := e.Grow(e.Tree().Root, OpAdd(ring), 3, 4)
	if e.Root() != 7 {
		t.Fatalf("3+4 = %d", e.Root())
	}
	e.SetLeaf(l, 10)
	if e.Root() != 14 {
		t.Fatalf("10+4 = %d", e.Root())
	}
	ll, _ := e.Grow(l, OpMul(ring), 6, 7)
	if e.Root() != 46 {
		t.Fatalf("6*7+4 = %d", e.Root())
	}
	if e.Value(l) != 42 {
		t.Fatalf("6*7 = %d", e.Value(l))
	}
	e.SetLeaves([]*Node{ll, r}, []int64{2, 100})
	if e.Root() != 114 {
		t.Fatalf("2*7+100 = %d", e.Root())
	}
	e.Collapse(l, 5)
	if e.Root() != 105 {
		t.Fatalf("5+100 = %d", e.Root())
	}
}

func TestExprWithTourProperties(t *testing.T) {
	ring := ModRing(97)
	e := NewExpr(ring, 1, WithSeed(7), WithTour())
	root := e.Tree().Root
	l, r := e.Grow(root, OpAdd(ring), 2, 3)
	ll, lr := e.Grow(l, OpMul(ring), 4, 5)
	if e.Preorder(root) != 1 || e.Preorder(l) != 2 || e.Preorder(ll) != 3 {
		t.Fatal("preorder numbers wrong")
	}
	if e.Ancestors(lr) != 2 || e.Ancestors(root) != 0 {
		t.Fatal("ancestor counts wrong")
	}
	if e.SubtreeSize(root) != 5 || e.SubtreeSize(l) != 3 {
		t.Fatal("subtree sizes wrong")
	}
	if e.LCA(ll, r) != root || e.LCA(ll, lr) != l {
		t.Fatal("LCA wrong")
	}
	if !e.IsAncestor(l, lr) || e.IsAncestor(r, lr) {
		t.Fatal("IsAncestor wrong")
	}
	tour := e.EulerTour()
	if len(tour) != 10 || tour[0].Node != root || !tour[0].Enter {
		t.Fatal("euler tour wrong")
	}
}

func TestTourPanicsWithoutOption(t *testing.T) {
	e := NewExpr(ModRing(97), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Preorder(e.Tree().Root)
}

func TestGrowCollapseSoakWithTour(t *testing.T) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 5, WithSeed(11), WithTour())
	src := prng.New(13)
	for step := 0; step < 80; step++ {
		leaves := e.Tree().Leaves()
		switch src.Intn(3) {
		case 0, 1:
			leaf := leaves[src.Intn(len(leaves))]
			e.Grow(leaf, OpAdd(ring), src.Int63(), src.Int63())
		default:
			var cand *Node
			for _, n := range e.Tree().Nodes {
				if n != nil && !n.IsLeaf() && n.Left.IsLeaf() && n.Right.IsLeaf() {
					cand = n
					break
				}
			}
			if cand != nil && e.Tree().LeafCount() > 1 {
				e.Collapse(cand, src.Int63())
			}
		}
		if got, want := e.Root(), e.Tree().Eval(); got != want {
			t.Fatalf("step %d: root %d want %d", step, got, want)
		}
		// Tour stays consistent.
		n := e.Tree().Nodes[src.Intn(len(e.Tree().Nodes))]
		if n != nil {
			_ = e.Preorder(n)
		}
	}
}

func TestSemiringConstructors(t *testing.T) {
	for _, r := range []Ring{ModRing(97), MinPlus(), MaxPlus(), BoolRing()} {
		e := NewExpr(r, r.One(), WithSeed(3))
		e.Grow(e.Tree().Root, OpAdd(r), r.One(), r.Zero())
		if got, want := e.Root(), e.Tree().Eval(); got != want {
			t.Fatalf("%s: %d want %d", r.Name(), got, want)
		}
	}
}

func TestNewListFacade(t *testing.T) {
	l := NewList(1, SumMonoid(), []int64{1, 2, 3, 4})
	if l.Total() != 10 {
		t.Fatalf("total %d", l.Total())
	}
	e := l.At(2)
	if l.PrefixAt(e) != 6 {
		t.Fatalf("prefix %d", l.PrefixAt(e))
	}
	l.Insert(nil, e, []int64{100})
	if l.Total() != 110 {
		t.Fatalf("total %d", l.Total())
	}
}

// TestListDeleteStaleElemPanics: deleting a ListElem again before the
// next mutation panics and leaves the list intact, instead of emptying it
// or deleting another element.
func TestListDeleteStaleElemPanics(t *testing.T) {
	vals := make([]int64, 10)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	l := NewList(3, SumMonoid(), vals)
	e := l.At(4)
	l.Delete(nil, []*ListElem[int64]{e})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("deleting a deleted element did not panic")
			}
		}()
		l.Delete(nil, []*ListElem[int64]{e})
	}()
	if l.Len() != 9 || l.Total() != 55-5 {
		t.Fatalf("len %d total %d, want 9 and 50", l.Len(), l.Total())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndMetricsExposed(t *testing.T) {
	ring := ModRing(97)
	e := NewExpr(ring, 1, WithSeed(5))
	l, _ := e.Grow(e.Tree().Root, OpAdd(ring), 1, 2)
	e.SetLeaf(l, 9)
	if e.Stats().WoundRecords < 1 {
		t.Fatal("no wound recorded")
	}
	if e.PRAM().Work == 0 {
		t.Fatal("no PRAM work metered")
	}
}

func TestWithWorkers(t *testing.T) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(9), WithWorkers(4))
	src := prng.New(3)
	for i := 0; i < 50; i++ {
		leaves := e.Tree().Leaves()
		e.Grow(leaves[src.Intn(len(leaves))], OpMul(ring), src.Int63(), src.Int63())
	}
	if got, want := e.Root(), e.Tree().Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}
