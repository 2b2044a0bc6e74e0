package core

import (
	"dyntc/internal/rbsts"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// timeKey packs a record's schedule time (Round, V.ID) into one word that
// compares as the pair does. Node IDs index a slice of pointers, so 32
// bits hold them with room to spare.
func timeKey(r *Record) uint64 { return uint64(uint32(r.Round))<<32 | uint64(uint32(r.V.ID)) }

// timeLess orders records by schedule time (round, raked-leaf ID).
func timeLess(a, b *Record) bool { return timeKey(a) < timeKey(b) }

// worklist is a binary min-heap of records ordered by timeKey: the wound
// is healed in schedule order. The key is packed at push time — rounds
// are final before a pass pushes anything — so ordering the heap never
// follows a pointer. The sift steps compare exactly as container/heap's
// do, which keeps the pop order of the historical heap.
type worklist []workItem

type workItem struct {
	key uint64
	r   *Record
}

func (w *worklist) push(r *Record) {
	h := append(*w, workItem{})
	it := workItem{timeKey(r), r}
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[i].key <= it.key {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	*w = h
}

// pop removes and returns the earliest record with the key it was pushed
// under; the list must not be empty.
func (w *worklist) pop() (uint64, *Record) {
	h := *w
	n := len(h) - 1
	top, it := h[0], h[n]
	h[n] = workItem{} // let go of the record
	h = h[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].key < h[j].key {
			j++
		}
		if h[j].key >= it.key {
			break
		}
		h[i] = h[j]
		i = j
	}
	if n > 0 {
		h[i] = it
	}
	*w = h
	return top.key, top.r
}

// reset empties the list, keeping its storage for the next wave.
func (w *worklist) reset() {
	clear(*w)
	*w = (*w)[:0]
}

// SetValue updates a single leaf value and heals the wound: the chain of
// records consuming the leaf's label, re-executed bottom-up. This is
// Theorem 4.2's "single update with a single processor in O(log n) time".
func (c *Contraction) SetValue(leaf *tree.Node, value int64) {
	c.SetValues([]*tree.Node{leaf}, []int64{value})
}

// SetValues applies a batch of leaf value updates (the paper's "modify
// labels of leaves of T") and heals the wound RT(W). The wound is located
// by activating PT(U) — exactly the paper's Step 1 — and healed by
// re-executing the consumer chains of every changed label in round order,
// one parallel step per wound round.
func (c *Contraction) SetValues(leaves []*tree.Node, values []int64) {
	if len(leaves) != len(values) {
		panic("core: SetValues length mismatch")
	}
	c.lastHeal = HealStats{}
	if len(leaves) == 0 {
		return
	}
	// Step 1: wound location / processor activation over PT (Thm 2.1).
	ptLeaves := make([]*ptNode, len(leaves))
	for i, l := range leaves {
		pl := c.slot(l).ptLeaf
		if pl == nil {
			panic("core: SetValues on a node that is not a live leaf")
		}
		ptLeaves[i] = pl
	}
	act := c.pt.Activate(c.machine, ptLeaves)
	act.Release(c.machine)

	for i, l := range leaves {
		c.T.SetValue(l, values[i])
	}

	pp := c.beginPass()
	for _, l := range leaves {
		pp.enqueue(c.recs.get(c.slot(l).firstTouch), false)
	}
	c.heal()

	if c.pt.Len() == 1 {
		c.rootValue = c.survivor.Value
	}
}

// SetOp updates the operation of an internal node and heals the single
// record that uses it (the paper's "modify labels of internal nodes").
func (c *Contraction) SetOp(n *tree.Node, op semiring.Op) {
	c.SetOps([]*tree.Node{n}, []semiring.Op{op})
}

// SetOps applies a batch of internal-operation updates. The operation of p
// is read exactly once in the trace — by the record that removes p — so the
// wound seeds are those records.
func (c *Contraction) SetOps(nodes []*tree.Node, ops []semiring.Op) {
	if len(nodes) != len(ops) {
		panic("core: SetOps length mismatch")
	}
	c.lastHeal = HealStats{}
	pp := c.beginPass()
	for i, n := range nodes {
		c.T.SetOp(n, ops[i])
		pp.enqueue(c.recs.get(c.slot(n).removedBy), false)
	}
	c.heal()
}

// heal re-executes a label wound: starting from the enqueued seed
// records, each record recomputes its labels from its producers; when its
// output changes, the consumer joins the worklist. Records are processed
// in (round, ID) order, so all producers of a record are final before it
// runs. One parallel step is charged per distinct wound round. It is the
// structural pass's drain loop (propPass.run) with nothing marked for
// structural re-execution and no budget.
func (c *Contraction) heal() {
	if reason := c.pass.run(0); reason != "" {
		panic("core: label heal abandoned: " + reason)
	}
	c.lastHeal.TotalRecords = c.records
}

// labelFromProducer returns the node's label as of a record's execution:
// the producing record's output, or the node's initial label.
func (c *Contraction) labelFromProducer(prev *Record, n *tree.Node) semiring.Linear {
	if prev != nil {
		return prev.LwOut
	}
	if n.IsLeaf() {
		return semiring.Const(c.ring, n.Value)
	}
	return semiring.Identity(c.ring)
}

// AddLeaves applies a batch of leaf expansions: T mutates, PT replaces each
// expanded leaf by the two new leaves using the randomized-rebuild
// insert/delete of Theorems 2.2/2.3, and the rake trace is repaired by
// change propagation seeded from the rebuild diff (propagate.go), falling
// back to a full re-simulation when the gate is off or the wound is not
// local. It returns the new (left, right) leaf pairs in batch order.
func (c *Contraction) AddLeaves(ops []AddOp) [][2]*tree.Node {
	c.lastHeal = HealStats{}
	if len(ops) == 0 {
		return nil
	}
	out := make([][2]*tree.Node, len(ops))

	// Collect insertion gaps against the pre-batch PT.
	insOps := make([]rbsts.InsertOp[*tree.Node], 0, len(ops))
	oldLeaves := make([]*ptNode, 0, len(ops))
	for _, op := range ops {
		pl := c.slot(op.Leaf).ptLeaf
		if pl == nil {
			panic("core: AddLeaves on a node that is not a live leaf")
		}
		insOps = append(insOps, rbsts.InsertOp[*tree.Node]{Gap: pl.Index(), Payloads: nil})
		oldLeaves = append(oldLeaves, pl)
	}
	// Mutate T and fill payloads.
	for i, op := range ops {
		l, r := c.T.AddChildren(op.Leaf, op.Op, op.LeftVal, op.RightVal)
		out[i] = [2]*tree.Node{l, r}
		insOps[i].Payloads = []*tree.Node{l, r}
	}
	c.growSlots()
	rep := c.pt.BatchInsert(c.machine, insOps)
	c.lastHeal.RebuildLeaves += rep.RebuildLeaves
	for i := range ops {
		c.slot(out[i][0]).ptLeaf = rep.NewLeaves[2*i]
		c.slot(out[i][1]).ptLeaf = rep.NewLeaves[2*i+1]
	}
	drep := c.pt.BatchDelete(c.machine, oldLeaves)
	c.lastHeal.RebuildLeaves += drep.RebuildLeaves
	deleted := make([]*tree.Node, 0, len(ops))
	for _, op := range ops {
		c.slot(op.Leaf).ptLeaf = nil
		deleted = append(deleted, op.Leaf)
	}
	// The expanded leaves left the leaf set (their records die) and their
	// initial labels flipped from Const to Identity.
	c.propagateStructural([]rbsts.Report[*tree.Node, struct{}]{rep, drep}, deleted, deleted)
	return out
}

// RemoveLeaves applies a batch of leaf-pair deletions, mirroring AddLeaves.
func (c *Contraction) RemoveLeaves(ops []RemoveOp) {
	c.lastHeal = HealStats{}
	if len(ops) == 0 {
		return
	}
	insOps := make([]rbsts.InsertOp[*tree.Node], 0, len(ops))
	var oldLeaves []*ptNode
	for _, op := range ops {
		n := op.Node
		if n.IsLeaf() || !n.Left.IsLeaf() || !n.Right.IsLeaf() {
			panic("core: RemoveLeaves requires an internal node with two leaf children")
		}
		pl, pr := c.slot(n.Left).ptLeaf, c.slot(n.Right).ptLeaf
		if pl == nil || pr == nil {
			panic("core: RemoveLeaves children not tracked")
		}
		insOps = append(insOps, rbsts.InsertOp[*tree.Node]{Gap: pl.Index(), Payloads: []*tree.Node{n}})
		oldLeaves = append(oldLeaves, pl, pr)
	}
	rep := c.pt.BatchInsert(c.machine, insOps)
	c.lastHeal.RebuildLeaves += rep.RebuildLeaves
	for i, op := range ops {
		c.slot(op.Node).ptLeaf = rep.NewLeaves[i]
	}
	drep := c.pt.BatchDelete(c.machine, oldLeaves)
	c.lastHeal.RebuildLeaves += drep.RebuildLeaves
	deleted := make([]*tree.Node, 0, 2*len(ops))
	relabeled := make([]*tree.Node, 0, len(ops))
	for _, op := range ops {
		c.slot(op.Node.Left).ptLeaf = nil
		c.slot(op.Node.Right).ptLeaf = nil
		deleted = append(deleted, op.Node.Left, op.Node.Right)
		c.T.DeleteChildren(op.Node, op.NewValue)
		// The collapsed node's initial label flipped from Identity to
		// Const(NewValue).
		relabeled = append(relabeled, op.Node)
	}
	c.propagateStructural([]rbsts.Report[*tree.Node, struct{}]{rep, drep}, deleted, relabeled)
}
