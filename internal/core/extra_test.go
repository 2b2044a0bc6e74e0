package core

// Additional coverage: semiring variety under dynamics, comb-shape
// structural churn, panics on misuse, batch ops healing, and metering
// sanity.

import (
	"testing"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

func TestDynamicOverAllSemirings(t *testing.T) {
	for _, r := range []semiring.Ring{
		semiring.MinPlus{}, semiring.MaxPlus{}, semiring.MaxMin{},
		semiring.Bool{}, semiring.NewMod(97),
	} {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			src := prng.New(7)
			tr := tree.Generate(r, src, 60, tree.ShapeRandom)
			c := New(tr, 9, nil)
			for step := 0; step < 60; step++ {
				leaves := tr.Leaves()
				switch src.Intn(3) {
				case 0:
					leaf := leaves[src.Intn(len(leaves))]
					op := semiring.OpAdd(r)
					if src.Intn(2) == 1 {
						op = semiring.OpMul(r)
					}
					c.AddLeaves([]AddOp{{Leaf: leaf, Op: op,
						LeftVal: r.Normalize(src.Int63()), RightVal: r.Normalize(src.Int63())}})
				case 1:
					c.SetValue(leaves[src.Intn(len(leaves))], r.Normalize(src.Int63()))
				default:
					var q *tree.Node
					for q == nil {
						cand := tr.Nodes[src.Intn(len(tr.Nodes))]
						if cand != nil {
							q = cand
						}
					}
					if got, want := c.Value(q), c.ValueOracle(q); got != want {
						t.Fatalf("step %d node %d: %d want %d", step, q.ID, got, want)
					}
				}
				if got, want := c.RootValue(), tr.Eval(); got != want {
					t.Fatalf("step %d: root %d want %d", step, got, want)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		})
	}
}

func TestCombShapeStructuralChurn(t *testing.T) {
	// The paper's motivating case: unbounded depth. Grow a comb to depth
	// 500 then mutate at the deep end.
	r := semiring.NewMod(1_000_000_007)
	tr := tree.New(r, 1)
	c := New(tr, 11, nil)
	cur := tr.Root
	for i := 0; i < 500; i++ {
		pairs := c.AddLeaves([]AddOp{{Leaf: cur, Op: semiring.OpAdd(r), LeftVal: 1, RightVal: 1}})
		cur = pairs[0][0]
		if err := c.Validate(); err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("comb root %d want %d", got, want)
	}
	// Deep single updates heal logarithmically despite depth 500.
	src := prng.New(13)
	total := 0
	for i := 0; i < 50; i++ {
		c.SetValue(cur, src.Int63())
		total += c.LastHeal().WoundRecords
	}
	if mean := float64(total) / 50; mean > 60 {
		t.Fatalf("deep update wound %.1f on comb of depth 500", mean)
	}
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("after updates: %d want %d", got, want)
	}
}

func TestSetValuesPanicsOnMismatch(t *testing.T) {
	tr := tree.New(semiring.NewMod(97), 1)
	c := New(tr, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.SetValues([]*tree.Node{tr.Root}, nil)
}

func TestSetValuesPanicsOnInternal(t *testing.T) {
	r := semiring.NewMod(97)
	tr := tree.New(r, 1)
	c := New(tr, 1, nil)
	c.AddLeaves([]AddOp{{Leaf: tr.Root, Op: semiring.OpAdd(r), LeftVal: 1, RightVal: 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.SetValue(tr.Root, 5) // root is internal now
}

func TestRemoveLeavesPanicsOnLeaf(t *testing.T) {
	r := semiring.NewMod(97)
	tr := tree.New(r, 1)
	c := New(tr, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.RemoveLeaves([]RemoveOp{{Node: tr.Root, NewValue: 0}})
}

func TestBatchAddThenBatchRemoveRoundTrip(t *testing.T) {
	r := semiring.NewMod(1_000_000_007)
	tr := tree.Generate(r, prng.New(15), 40, tree.ShapeRandom)
	c := New(tr, 17, nil)
	before := c.RootValue()

	leaves := tr.Leaves()
	// Capture values before growth: AddChildren clears the grown leaf's
	// value when it becomes an operation node.
	v3, v20 := leaves[3].Value, leaves[20].Value
	ops := []AddOp{
		{Leaf: leaves[3], Op: semiring.OpAdd(r), LeftVal: 5, RightVal: 6},
		{Leaf: leaves[20], Op: semiring.OpMul(r), LeftVal: 7, RightVal: 8},
	}
	c.AddLeaves(ops)
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("after add: %d want %d", got, want)
	}
	// Undo with the original leaf values.
	c.RemoveLeaves([]RemoveOp{
		{Node: leaves[3], NewValue: v3},
		{Node: leaves[20], NewValue: v20},
	})
	if got := c.RootValue(); got != before {
		t.Fatalf("round trip: %d want %d", got, before)
	}
}

func TestHealWorkIsMetered(t *testing.T) {
	r := semiring.NewMod(97)
	tr := tree.Generate(r, prng.New(19), 200, tree.ShapeRandom)
	m := pram.Sequential()
	c := New(tr, 21, m)
	w0 := m.Metrics().Work
	c.SetValue(tr.Leaves()[50], 3)
	if m.Metrics().Work <= w0 {
		t.Fatal("healing charged no work")
	}
	if c.LastHeal().WoundRounds < 1 || c.LastHeal().WoundRecords < c.LastHeal().WoundRounds {
		t.Fatalf("implausible heal stats %+v", c.LastHeal())
	}
}

func TestValuesBatchOnLeavesAndRoot(t *testing.T) {
	r := semiring.NewMod(97)
	tr := tree.Generate(r, prng.New(23), 64, tree.ShapeRandom)
	c := New(tr, 25, nil)
	qs := append(tr.Leaves(), tr.Root)
	got := c.ValuesBatch(qs)
	for i, q := range qs {
		if want := c.ValueOracle(q); got[i] != want {
			t.Fatalf("query %d: %d want %d", i, got[i], want)
		}
	}
	if got[len(got)-1] != c.RootValue() {
		t.Fatal("root query disagrees with maintained root")
	}
}

func TestWoundRoundsBoundedByPTDepth(t *testing.T) {
	r := semiring.NewMod(1_000_000_007)
	tr := tree.Generate(r, prng.New(27), 2000, tree.ShapeRandom)
	c := New(tr, 29, nil)
	src := prng.New(31)
	leaves := tr.Leaves()
	for i := 0; i < 30; i++ {
		var ls []*tree.Node
		var vs []int64
		for j := 0; j < 16; j++ {
			ls = append(ls, leaves[src.Intn(len(leaves))])
			vs = append(vs, src.Int63())
		}
		c.SetValues(ls, vs)
		if c.LastHeal().WoundRounds > c.PTDepth()+1 {
			t.Fatalf("wound rounds %d exceed PT depth %d", c.LastHeal().WoundRounds, c.PTDepth())
		}
	}
}
