package core

import (
	"math"
	"testing"
	"testing/quick"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

var testRing = semiring.NewMod(1_000_000_007)

var allShapes = []tree.Shape{tree.ShapeRandom, tree.ShapeBalanced, tree.ShapeLeftComb, tree.ShapeRightComb}

func TestRootValueMatchesEval(t *testing.T) {
	for _, shape := range allShapes {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 100, 1000} {
			tr := tree.Generate(testRing, prng.New(uint64(13*n+int(shape))), n, shape)
			c := New(tr, uint64(n), nil)
			if got, want := c.RootValue(), tr.Eval(); got != want {
				t.Fatalf("shape %d n=%d: root %d want %d", shape, n, got, want)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRootValueOverSemirings(t *testing.T) {
	for _, r := range []semiring.Ring{semiring.MinPlus{}, semiring.MaxPlus{}, semiring.Bool{}, semiring.NewMod(97)} {
		tr := tree.Generate(r, prng.New(5), 300, tree.ShapeRandom)
		c := New(tr, 7, nil)
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("%s: root %d want %d", r.Name(), got, want)
		}
	}
}

func TestValueQueriesAllNodes(t *testing.T) {
	for _, shape := range allShapes {
		tr := tree.Generate(testRing, prng.New(uint64(shape)+3), 200, shape)
		c := New(tr, 11, nil)
		for _, n := range tr.Nodes {
			if n == nil {
				continue
			}
			if got, want := c.Value(n), c.ValueOracle(n); got != want {
				t.Fatalf("shape %d node %d: value %d want %d", shape, n.ID, got, want)
			}
		}
	}
}

func TestValuesBatchSharedMemo(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(21), 500, tree.ShapeRandom)
	c := New(tr, 23, nil)
	var qs []*tree.Node
	for _, n := range tr.Nodes {
		if n != nil {
			qs = append(qs, n)
		}
	}
	got := c.ValuesBatch(qs)
	for i, n := range qs {
		if want := c.ValueOracle(n); got[i] != want {
			t.Fatalf("node %d: %d want %d", n.ID, got[i], want)
		}
	}
}

func TestSetValueHealsRoot(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(31), 300, tree.ShapeRandom)
	c := New(tr, 37, nil)
	src := prng.New(41)
	leaves := tr.Leaves()
	for i := 0; i < 50; i++ {
		leaf := leaves[src.Intn(len(leaves))]
		c.SetValue(leaf, src.Int63())
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("update %d: root %d want %d", i, got, want)
		}
	}
}

func TestSetValuesBatchHeals(t *testing.T) {
	for _, shape := range allShapes {
		tr := tree.Generate(testRing, prng.New(uint64(shape)*7+1), 400, shape)
		c := New(tr, 43, nil)
		src := prng.New(47)
		leaves := tr.Leaves()
		for trial := 0; trial < 10; trial++ {
			k := 1 + src.Intn(20)
			var ls []*tree.Node
			var vs []int64
			seen := map[int]bool{}
			for len(ls) < k {
				i := src.Intn(len(leaves))
				if !seen[i] {
					seen[i] = true
					ls = append(ls, leaves[i])
					vs = append(vs, src.Int63())
				}
			}
			c.SetValues(ls, vs)
			if got, want := c.RootValue(), tr.Eval(); got != want {
				t.Fatalf("shape %d trial %d: root %d want %d", shape, trial, got, want)
			}
			// Queries stay consistent after healing.
			n := tr.Nodes[src.Intn(len(tr.Nodes))]
			if n != nil {
				if got, want := c.Value(n), c.ValueOracle(n); got != want {
					t.Fatalf("shape %d trial %d: node %d value %d want %d", shape, trial, n.ID, got, want)
				}
			}
		}
	}
}

func TestHealMatchesResimulation(t *testing.T) {
	// Strong differential check: after incremental healing, every record
	// label must equal what a from-scratch simulation over the same PT
	// produces.
	tr := tree.Generate(testRing, prng.New(51), 300, tree.ShapeRandom)
	c := New(tr, 53, nil)
	src := prng.New(59)
	leaves := tr.Leaves()
	for trial := 0; trial < 5; trial++ {
		var ls []*tree.Node
		var vs []int64
		for i := 0; i < 8; i++ {
			ls = append(ls, leaves[src.Intn(len(leaves))])
			vs = append(vs, src.Int63())
		}
		c.SetValues(ls, vs)
		healed := snapshotLabels(c)
		rootHealed := c.RootValue()
		c.simulate()
		if c.RootValue() != rootHealed {
			t.Fatalf("trial %d: healed root %d, resim %d", trial, rootHealed, c.RootValue())
		}
		for v, want := range snapshotLabels(c) {
			if healed[v] != want {
				t.Fatalf("trial %d: record at leaf %d: healed %+v, resim %+v",
					trial, v.ID, healed[v], want)
			}
		}
	}
}

func snapshotLabels(c *Contraction) map[*tree.Node][4]semiring.Linear {
	out := make(map[*tree.Node][4]semiring.Linear, c.Records())
	for _, r := range liveRecords(c) {
		out[r.V] = [4]semiring.Linear{r.Lv, r.LpIn, r.LwIn, r.LwOut}
	}
	return out
}

// liveRecords lists the trace's records in raked-leaf ID order.
func liveRecords(c *Contraction) []*Record {
	out := make([]*Record, 0, c.Records())
	for i := range c.slots {
		if r := c.slots[i].rec; r != nil {
			out = append(out, r)
		}
	}
	return out
}

func TestSetOpsHeal(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(61), 200, tree.ShapeRandom)
	c := New(tr, 67, nil)
	src := prng.New(71)
	for trial := 0; trial < 30; trial++ {
		var internals []*tree.Node
		for _, n := range tr.Nodes {
			if n != nil && !n.IsLeaf() {
				internals = append(internals, n)
			}
		}
		n := internals[src.Intn(len(internals))]
		op := semiring.OpAdd(testRing)
		if src.Intn(2) == 1 {
			op = semiring.OpMul(testRing)
		}
		c.SetOp(n, op)
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("trial %d: root %d want %d", trial, got, want)
		}
	}
}

func TestSingleUpdateWoundLogarithmic(t *testing.T) {
	// Theorem 4.2 (sequential): a single update costs O(log n) expected.
	// The wound of one leaf update is its consumer chain; its expected
	// length is O(log n).
	const n = 1 << 14
	tr := tree.Generate(testRing, prng.New(73), n, tree.ShapeRandom)
	c := New(tr, 79, nil)
	src := prng.New(83)
	leaves := tr.Leaves()
	total := 0
	const updates = 200
	for i := 0; i < updates; i++ {
		c.SetValue(leaves[src.Intn(len(leaves))], src.Int63())
		total += c.LastHeal().WoundRecords
	}
	mean := float64(total) / updates
	if bound := 6 * math.Log(float64(n)); mean > bound {
		t.Fatalf("mean wound %0.1f records exceeds %0.1f", mean, bound)
	}

	// Theorem 4.1, batches: a |U|-leaf SetValues wound is O(|U|·log n)
	// records. Measured 1.51/1.04/0.74·|U|·ln n at |U| = 1/16/128 (the
	// wounds of a batch share their upper chains); c = 4 leaves ≥ 2.6×
	// headroom.
	for _, u := range []int{1, 16, 128} {
		const trials = 20
		total := 0
		for trial := 0; trial < trials; trial++ {
			ls := make([]*tree.Node, 0, u)
			vs := make([]int64, 0, u)
			seen := map[int]bool{}
			for len(ls) < u {
				if i := src.Intn(len(leaves)); !seen[i] {
					seen[i] = true
					ls = append(ls, leaves[i])
					vs = append(vs, src.Int63())
				}
			}
			c.SetValues(ls, vs)
			total += c.LastHeal().WoundRecords
		}
		ratio := float64(total) / trials / (float64(u) * math.Log(float64(n)))
		t.Logf("|U|=%d: mean wound %.2f·|U|·ln n", u, ratio)
		if ratio > 4 {
			t.Fatalf("|U|=%d: mean wound %.2f·|U|·ln n records, want ≤ 4", u, ratio)
		}
	}

	// Theorem 4.2, queries: a value query on a random tree replays
	// O(log n) records (PRAM work of Value). Measured 0.17·ln n; c = 1
	// leaves ≥ 5× headroom. Combs are deliberately absent:
	// there a query walks the contracted path (ROADMAP item 2).
	var internals []*tree.Node
	for _, nd := range tr.Nodes {
		if nd != nil && !nd.IsLeaf() {
			internals = append(internals, nd)
		}
	}
	replay := int64(0)
	const queries = 200
	for i := 0; i < queries; i++ {
		before := c.Machine().Metrics().Work
		c.Value(internals[src.Intn(len(internals))])
		replay += c.Machine().Metrics().Work - before
	}
	ratio := float64(replay) / queries / math.Log(float64(n))
	t.Logf("value query: mean replay %.3f·ln n", ratio)
	if ratio > 1 {
		t.Fatalf("value query replays %.2f·ln n records on average, want ≤ ln n", ratio)
	}
}

func TestAddLeaves(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(87), 50, tree.ShapeRandom)
	c := New(tr, 89, nil)
	src := prng.New(91)
	for trial := 0; trial < 30; trial++ {
		leaves := tr.Leaves()
		k := 1 + src.Intn(3)
		var ops []AddOp
		seen := map[*tree.Node]bool{}
		for len(ops) < k {
			l := leaves[src.Intn(len(leaves))]
			if seen[l] {
				continue
			}
			seen[l] = true
			op := semiring.OpAdd(testRing)
			if src.Intn(2) == 1 {
				op = semiring.OpMul(testRing)
			}
			ops = append(ops, AddOp{Leaf: l, Op: op, LeftVal: src.Int63(), RightVal: src.Int63()})
		}
		pairs := c.AddLeaves(ops)
		if len(pairs) != len(ops) {
			t.Fatalf("trial %d: %d pairs", trial, len(pairs))
		}
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("trial %d: root %d want %d", trial, got, want)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRemoveLeaves(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(93), 200, tree.ShapeRandom)
	c := New(tr, 95, nil)
	src := prng.New(97)
	for trial := 0; trial < 40 && tr.LeafCount() > 2; trial++ {
		// Find internal nodes with two leaf children.
		var cands []*tree.Node
		for _, n := range tr.Nodes {
			if n != nil && !n.IsLeaf() && n.Left.IsLeaf() && n.Right.IsLeaf() {
				cands = append(cands, n)
			}
		}
		if len(cands) == 0 {
			break
		}
		n := cands[src.Intn(len(cands))]
		c.RemoveLeaves([]RemoveOp{{Node: n, NewValue: src.Int63()}})
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("trial %d: root %d want %d", trial, got, want)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMixedSoak(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(101), 30, tree.ShapeRandom)
	c := New(tr, 103, nil)
	src := prng.New(107)
	for step := 0; step < 250; step++ {
		leaves := tr.Leaves()
		switch src.Intn(4) {
		case 0: // grow
			l := leaves[src.Intn(len(leaves))]
			c.AddLeaves([]AddOp{{Leaf: l, Op: semiring.OpAdd(testRing), LeftVal: src.Int63(), RightVal: src.Int63()}})
		case 1: // shrink
			var cands []*tree.Node
			for _, n := range tr.Nodes {
				if n != nil && !n.IsLeaf() && n.Left.IsLeaf() && n.Right.IsLeaf() {
					cands = append(cands, n)
				}
			}
			if len(cands) > 0 && tr.LeafCount() > 1 {
				c.RemoveLeaves([]RemoveOp{{Node: cands[src.Intn(len(cands))], NewValue: src.Int63()}})
			}
		case 2: // value update
			c.SetValue(leaves[src.Intn(len(leaves))], src.Int63())
		default: // query
			var live []*tree.Node
			for _, n := range tr.Nodes {
				if n != nil {
					live = append(live, n)
				}
			}
			n := live[src.Intn(len(live))]
			if got, want := c.Value(n), c.ValueOracle(n); got != want {
				t.Fatalf("step %d: node %d value %d want %d", step, n.ID, got, want)
			}
		}
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("step %d: root %d want %d", step, got, want)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestScheduleSafety(t *testing.T) {
	// §4.2's validity claim: no two rakes of one round share a parent (no
	// two siblings rake simultaneously) and no two rakes compress into the
	// same sibling. A round MAY contain chains where one rake's parent is
	// another's sibling (B compresses into a node A removes); those are
	// sequentialized deterministically by leaf ID — see the package
	// comment — so here we assert only the guaranteed disjointness.
	for _, shape := range allShapes {
		tr := tree.Generate(testRing, prng.New(uint64(shape)+109), 500, shape)
		c := New(tr, 113, nil)
		// Every internal node is removed by exactly one record.
		seenP := map[*tree.Node]bool{}
		for _, r := range liveRecords(c) {
			if r.P.IsLeaf() {
				t.Fatalf("shape %d: rake removed a leaf", shape)
			}
			if seenP[r.P] {
				t.Fatalf("shape %d: node %d removed twice", shape, r.P.ID)
			}
			seenP[r.P] = true
		}
		internals := 0
		for _, n := range tr.Nodes {
			if n != nil && !n.IsLeaf() {
				internals++
			}
		}
		if len(seenP) != internals {
			t.Fatalf("shape %d: %d removals for %d internal nodes", shape, len(seenP), internals)
		}
		// Same-round records sharing a sibling or crossing parent/sibling
		// must be chain-linked (the sequentialized order is then a valid
		// rake sequence); chain links are exactly the touch edges, whose
		// ordering TestHealOrderMatchesSimulateOrder verifies.
		type key struct {
			round int
			node  *tree.Node
		}
		firstW := map[key]*Record{}
		for _, r := range liveRecords(c) {
			k := key{r.Round, r.W}
			if prev, ok := firstW[k]; ok {
				// One of the two must reach the other through touch edges.
				linked := false
				for x := prev; x != nil && x.Round == r.Round; x = x.Next {
					if x == r {
						linked = true
						break
					}
				}
				for x := r; x != nil && x.Round == prev.Round; x = x.Next {
					if x == prev {
						linked = true
						break
					}
				}
				if !linked {
					t.Fatalf("shape %d: round %d: unlinked records share sibling %d",
						shape, r.Round, r.W.ID)
				}
			} else {
				firstW[k] = r
			}
		}
	}
}

func TestHealOrderMatchesSimulateOrder(t *testing.T) {
	// The heal worklist is keyed by (round, raked-leaf ID), which must
	// match simulate's execution order exactly: producer records always
	// precede their consumers in that order, even for intra-round chains
	// (where one rake's sibling is another's parent).
	tr := tree.Generate(testRing, prng.New(151), 800, tree.ShapeRandom)
	c := New(tr, 157, nil)
	for _, r := range liveRecords(c) {
		for _, prev := range []*Record{r.VPrev, r.PPrev, r.WPrev} {
			if prev == nil {
				continue
			}
			if prev.Round > r.Round ||
				(prev.Round == r.Round && prev.V.ID >= r.V.ID) {
				t.Fatalf("producer (round %d leaf %d) does not precede consumer (round %d leaf %d)",
					prev.Round, prev.V.ID, r.Round, r.V.ID)
			}
		}
	}
}

func TestRoundsEqualPTDepth(t *testing.T) {
	// §4.2: "the number of parallel steps is exactly the depth of PT".
	tr := tree.Generate(testRing, prng.New(127), 1000, tree.ShapeRandom)
	c := New(tr, 131, nil)
	maxRound := 0
	for _, r := range liveRecords(c) {
		if r.Round > maxRound {
			maxRound = r.Round
		}
	}
	if maxRound != c.PTDepth() {
		t.Fatalf("max round %d != PT depth %d", maxRound, c.PTDepth())
	}
}

func TestQuickRandomTrees(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 1 + int(seed%128)
		tr := tree.Generate(testRing, src, n, tree.ShapeRandom)
		c := New(tr, seed^0xABCD, nil)
		if c.RootValue() != tr.Eval() {
			return false
		}
		// One random update + one random query.
		leaves := tr.Leaves()
		c.SetValue(leaves[src.Intn(len(leaves))], src.Int63())
		if c.RootValue() != tr.Eval() || c.Validate() != nil {
			return false
		}
		var live []*tree.Node
		for _, nd := range tr.Nodes {
			if nd != nil {
				live = append(live, nd)
			}
		}
		q := live[src.Intn(len(live))]
		return c.Value(q) == c.ValueOracle(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMachineContraction(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(137), 2000, tree.ShapeRandom)
	c := New(tr, 139, pram.New(4))
	if got, want := c.RootValue(), tr.Eval(); got != want {
		t.Fatalf("root %d want %d", got, want)
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := tree.New(testRing, 42)
	c := New(tr, 1, nil)
	if c.RootValue() != 42 {
		t.Fatalf("root %d", c.RootValue())
	}
	if c.Value(tr.Root) != 42 {
		t.Fatal("value query")
	}
	c.SetValue(tr.Root, 7)
	if c.RootValue() != 7 {
		t.Fatalf("root after update %d", c.RootValue())
	}
	// Grow from a single leaf.
	c.AddLeaves([]AddOp{{Leaf: tr.Root, Op: semiring.OpAdd(testRing), LeftVal: 2, RightVal: 3}})
	if c.RootValue() != 5 {
		t.Fatalf("root after growth %d", c.RootValue())
	}
}
