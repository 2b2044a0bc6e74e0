package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// sortRecords orders records by (round, raked-leaf ID): the order
// simulate executes them in.
func sortRecords(recs []*Record) {
	slices.SortFunc(recs, func(a, b *Record) int { return cmp.Compare(timeKey(a), timeKey(b)) })
}

// simulateRef is the pointer-linked simulate that the index-linked one
// replaced, kept as its reference: the overlay links T's nodes by
// pointer, starting from T's own links rather than the cells' mirror of
// them, the sort compares through the records, and the rake reads each
// node's operation from the tree. Only the records and the trace fields
// name cells, which it maps to and from T's nodes.
func (c *Contraction) simulateRef() {
	n := len(c.T.Nodes)
	for i := range c.cells {
		x := &c.cells[i]
		x.rec, x.removedBy, x.firstTouch = 0, 0, 0
	}
	c.records = 0
	c.recs.Reset(max(c.pt.Len()-1, 0))
	node := func(u cellRef) *tree.Node { return c.T.Nodes[c.cell(u).id] }

	if c.pt.Len() == 0 {
		c.rootValue = c.ring.Zero()
		c.survivor = 0
		return
	}
	if c.pt.Len() == 1 {
		c.survivor = c.pt.Head().Payload()
		c.rootValue = node(c.survivor).Value
		return
	}

	recs := make([]*Record, 0, c.pt.Len()-1)
	for l := c.pt.Head(); l.Next() != nil; l = l.Next() {
		r := c.newRecord(l.Payload(), l.GapNode().Height())
		recs = append(recs, r)
	}
	sortRecords(recs)

	type overlayNode struct {
		parent, left, right *tree.Node
		rep                 *tree.Node
		label               semiring.Linear
		lastTouch           *Record
	}
	at := make([]int32, n)
	overlay := make([]overlayNode, 0, c.T.Len())
	for _, nd := range c.T.Nodes {
		if nd == nil {
			continue
		}
		at[nd.ID] = int32(len(overlay))
		o := overlayNode{parent: nd.Parent, left: nd.Left, right: nd.Right, rep: nd}
		if nd.IsLeaf() {
			o.label = semiring.Const(c.ring, nd.Value)
		} else {
			o.label = semiring.Identity(c.ring)
		}
		overlay = append(overlay, o)
	}

	touch := func(r *Record, nd *tree.Node, o *overlayNode) recID {
		prev := o.lastTouch
		o.lastTouch = r
		if prev != nil {
			prev.Next = r.id
		} else {
			c.cell(c.cellFor(nd)).firstTouch = r.id
		}
		return ref(prev)
	}

	i := 0
	for i < len(recs) {
		j := i
		for j < len(recs) && recs[j].Round == recs[i].Round {
			j++
		}
		c.machine.Charge(j - i)
		for _, r := range recs[i:j] {
			v := node(r.V)
			ov := &overlay[at[v.ID]]
			p := ov.parent
			op := &overlay[at[p.ID]]
			w := op.left
			if w == v {
				w = op.right
			}
			ow := &overlay[at[w.ID]]
			r.P, r.W = c.cellFor(p), c.cellFor(w)
			r.VPrev = touch(r, v, ov)
			r.PPrev = touch(r, p, op)
			r.WPrev = touch(r, w, ow)
			r.Lv, r.LpIn, r.LwIn = ov.label, op.label, ow.label
			lpOut := r.LpIn.Compose(c.ring, p.Op.Partial(c.ring, r.Lv.B))
			r.LwOut = lpOut.Compose(c.ring, r.LwIn)
			ow.label = r.LwOut
			r.Wrep, r.Prep = c.cellFor(ow.rep), c.cellFor(op.rep)
			ow.rep = op.rep
			g := op.parent
			ow.parent = g
			r.G = c.cellFor(g)
			if g != nil {
				og := &overlay[at[g.ID]]
				if og.left == p {
					og.left = w
					r.WLeft = true
				} else {
					og.right = w
					r.WLeft = false
				}
			}
			c.cell(r.V).rec = r.id
			c.cell(r.P).removedBy = r.id
		}
		i = j
	}
	c.records = len(recs)

	c.survivor = c.pt.Tail().Payload()
	final := overlay[at[node(c.survivor).ID]].label
	if final.A != c.ring.Zero() {
		panic("core: survivor label is not constant")
	}
	c.rootValue = final.B
}

// caterpillar grows a spine of the given number of leaves, hanging each
// spine node's other child off a random side.
func caterpillar(r semiring.Ring, src *prng.Source, leaves int) *tree.Tree {
	t := tree.New(r, src.Int63())
	spine := t.Root
	for t.LeafCount() < leaves {
		op := semiring.OpAdd(r)
		if src.Intn(2) == 1 {
			op = semiring.OpMul(r)
		}
		l, rt := t.AddChildren(spine, op, src.Int63(), src.Int63())
		spine = l
		if src.Intn(2) == 1 {
			spine = rt
		}
	}
	return t
}

// TestSimulateMatchesReference: the index-linked simulate builds, field by
// field, the trace the pointer-linked reference builds, and meters the
// same PRAM steps and work — on random, balanced, comb and caterpillar
// trees across seeds, and again after grow/collapse churn has left dead
// IDs between the live ones.
func TestSimulateMatchesReference(t *testing.T) {
	ring := semiring.NewMod(1_000_003)
	shapes := []struct {
		name string
		gen  func(src *prng.Source, leaves int) *tree.Tree
	}{
		{"random", func(src *prng.Source, n int) *tree.Tree { return tree.Generate(ring, src, n, tree.ShapeRandom) }},
		{"balanced", func(src *prng.Source, n int) *tree.Tree { return tree.Generate(ring, src, n, tree.ShapeBalanced) }},
		{"left-comb", func(src *prng.Source, n int) *tree.Tree { return tree.Generate(ring, src, n, tree.ShapeLeftComb) }},
		{"right-comb", func(src *prng.Source, n int) *tree.Tree { return tree.Generate(ring, src, n, tree.ShapeRightComb) }},
		{"caterpillar", func(src *prng.Source, n int) *tree.Tree { return caterpillar(ring, src, n) }},
	}
	for _, sh := range shapes {
		for _, seed := range []uint64{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				src := prng.New(seed)
				tr := sh.gen(src, 1+src.Intn(600))
				c := New(tr, seed+10, nil)
				if err := c.matchesReference(); err != nil {
					t.Fatalf("fresh: %v", err)
				}
				// Churn: grow k leaves, collapse most of what grew.
				for wave := 0; wave < 30; wave++ {
					leaves := tr.Leaves()
					k := min(1+src.Intn(6), len(leaves))
					ops := make([]AddOp, 0, k)
					for _, i := range src.Perm(len(leaves))[:k] {
						ops = append(ops, AddOp{Leaf: leaves[i], Op: semiring.OpMul(ring),
							LeftVal: src.Int63(), RightVal: src.Int63()})
					}
					pairs := c.AddLeaves(ops)
					rm := make([]RemoveOp, 0, k)
					for i, p := range pairs {
						if i%3 != 2 {
							rm = append(rm, RemoveOp{Node: p[0].Parent, NewValue: src.Int63()})
						}
					}
					c.RemoveLeaves(rm)
				}
				if tr.Len() == len(tr.Nodes) {
					t.Fatal("churn left no dead IDs")
				}
				if err := c.matchesReference(); err != nil {
					t.Fatalf("after churn: %v", err)
				}
			})
		}
	}
}

// matchesReference re-simulates the trace with both implementations from
// the same state and compares them, and their PRAM meters.
func (c *Contraction) matchesReference() error {
	m0 := c.machine.Metrics()
	c.simulate()
	m1 := c.machine.Metrics()
	if err := c.traceDiff(c.simulateRef); err != nil {
		return err
	}
	m2 := c.machine.Metrics()
	if m1.Steps-m0.Steps != m2.Steps-m1.Steps || m1.Work-m0.Work != m2.Work-m1.Work {
		return fmt.Errorf("meter: simulate charged %d steps / %d work, reference %d / %d",
			m1.Steps-m0.Steps, m1.Work-m0.Work, m2.Steps-m1.Steps, m2.Work-m1.Work)
	}
	return nil
}
