package core

import (
	"dyntc/internal/rbsts"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// timeKey packs a record's schedule time (Round, V's tree.Node.ID) into
// one word that compares as the pair does.
func timeKey(r *Record) uint64 { return uint64(uint32(r.Round))<<32 | uint64(uint32(r.vid)) }

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
	s := &c.wave
	s.cells, s.ptLeaves = s.cells[:0], s.ptLeaves[:0]
	for _, l := range leaves {
		u, pl := c.liveLeaf(l)
		if pl == nil {
			panic("core: SetValues on a node that is not a live leaf")
		}
		s.cells = append(s.cells, u)
		s.ptLeaves = append(s.ptLeaves, pl)
	}
	act := c.pt.Activate(c.machine, s.ptLeaves)
	act.Release(c.machine)

	for i, l := range leaves {
		c.T.SetValue(l, values[i])
		c.cell(s.cells[i]).op.A = l.Value
	}

	pp := c.beginPass()
	for _, u := range s.cells {
		pp.enqueue(c.recs.Get(c.cell(u).firstTouch), false)
	}
	c.heal()

	if c.pt.Len() == 1 {
		c.rootValue = c.cell(c.survivor).value()
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
		c.T.SetOp(n, ops[i]) // panics on a leaf, so n is a live internal node
		x := c.cell(c.cellFor(n))
		x.op = n.Op
		pp.enqueue(c.recs.Get(x.removedBy), false)
	}
	c.heal()
}

// heal re-executes a label wound: starting from the enqueued seed
// records, each record recomputes its labels from its producers; when its
// output changes, the consumer joins the worklist. Records are processed
// in (round, ID) order, so all producers of a record are final before it
// runs. One parallel step is charged per distinct wound round. It is the
// structural pass's drain loop (propPass.run) with nothing marked for
// structural re-execution.
func (c *Contraction) heal() {
	if reason := c.pass.run(); reason != "" {
		panic("core: label heal abandoned: " + reason)
	}
	c.lastHeal.TotalRecords = c.records
}

// labelFromProducer returns u's label as of a record's execution: the
// producing record's output, or the node's initial label.
func (c *Contraction) labelFromProducer(prev *Record, u cellRef) semiring.Linear {
	if prev != nil {
		return prev.LwOut
	}
	return c.cell(u).label(c.ring)
}

// waveScratch is a structural wave's request and PT-diff storage, owned
// by the Contraction and reused from wave to wave.
type waveScratch struct {
	insOps    []rbsts.InsertOp[cellRef]
	payloads  []cellRef
	oldLeaves []*ptNode
	ptLeaves  []*ptNode
	// cells holds the cells of the nodes a label wave names.
	cells []cellRef
	// deleted lists the T nodes that left PT's leaf set, relabeled those
	// whose initial label flipped between leaf and internal.
	deleted, relabeled []cellRef
	// diff is the rebuild diff both PT mutations reported, in report
	// order, copied out before the second mutation reuses the storage of
	// the first one's report.
	diff []ptSeed
}

// ptSeed is one entry of a PT rebuild diff: the PT node ID of a rebuilt
// subtree's root (subtree), or of a surviving internal node whose round
// or raked leaf changed.
type ptSeed struct {
	id      int32
	subtree bool
}

// begin empties the scratch for a new wave.
func (s *waveScratch) begin() {
	s.insOps, s.payloads, s.oldLeaves = s.insOps[:0], s.payloads[:0], s.oldLeaves[:0]
	s.deleted, s.relabeled, s.diff = s.deleted[:0], s.relabeled[:0], s.diff[:0]
}

// note copies a PT mutation's rebuild diff out of its report.
func (s *waveScratch) note(rep rbsts.Report[cellRef, struct{}]) {
	for _, x := range rep.Rebuilt {
		s.diff = append(s.diff, ptSeed{x.ID(), true})
	}
	for _, x := range rep.HeightChanged {
		s.diff = append(s.diff, ptSeed{x.ID(), false})
	}
	for _, x := range rep.GapRelinked {
		s.diff = append(s.diff, ptSeed{x.ID(), false})
	}
}

// AddLeaves applies a batch of leaf expansions: T mutates, PT replaces each
// expanded leaf by the two new leaves using the randomized-rebuild
// insert/delete of Theorems 2.2/2.3, and the rake trace is repaired by
// change propagation seeded from the rebuild diff (propagate.go), or
// re-simulated when the gate is off or the wave's frontier holds more than
// half the trace. It returns the new (left, right) leaf pairs in batch order.
func (c *Contraction) AddLeaves(ops []AddOp) [][2]*tree.Node {
	c.lastHeal = HealStats{}
	if len(ops) == 0 {
		return nil
	}
	out := make([][2]*tree.Node, len(ops))
	s := &c.wave
	s.begin()

	// Collect insertion gaps against the pre-batch PT. The expanded
	// leaves will leave the leaf set.
	for _, op := range ops {
		u, pl := c.liveLeaf(op.Leaf)
		if pl == nil {
			panic("core: AddLeaves on a node that is not a live leaf")
		}
		s.insOps = append(s.insOps, rbsts.InsertOp[cellRef]{Gap: pl.Index()})
		s.oldLeaves = append(s.oldLeaves, pl)
		s.deleted = append(s.deleted, u)
	}
	// Mutate T, then mirror it: each expanded leaf's cell takes its
	// operation and two fresh cells as children, which are the payloads.
	for i, op := range ops {
		l, r := c.T.AddChildren(op.Leaf, op.Op, op.LeftVal, op.RightVal)
		out[i] = [2]*tree.Node{l, r}
	}
	c.growIDs()
	for i, u := range s.deleted {
		l, r := c.newCell(out[i][0]), c.newCell(out[i][1])
		c.cell(l).parent, c.cell(l).isLeft = u, true
		c.cell(r).parent = u
		x := c.cell(u)
		x.op, x.left, x.right = ops[i].Leaf.Op, l, r
		s.payloads = append(s.payloads, l, r)
	}
	for i := range s.insOps {
		s.insOps[i].Payloads = s.payloads[2*i : 2*i+2 : 2*i+2]
	}
	rep := c.pt.BatchInsert(c.machine, s.insOps)
	c.lastHeal.RebuildLeaves += rep.RebuildLeaves
	for i, u := range s.payloads {
		c.cell(u).ptLeaf = rep.NewLeaves[i].ID()
	}
	s.note(rep)
	drep := c.pt.BatchDelete(c.machine, s.oldLeaves)
	c.lastHeal.RebuildLeaves += drep.RebuildLeaves
	s.note(drep)
	for _, u := range s.deleted {
		c.cell(u).ptLeaf = 0
	}
	// The expanded leaves left the leaf set (their records die) and their
	// initial labels flipped from Const to Identity.
	c.propagateStructural(s.deleted, s.deleted)
	return out
}

// RemoveLeaves applies a batch of leaf-pair deletions, mirroring AddLeaves.
func (c *Contraction) RemoveLeaves(ops []RemoveOp) {
	c.lastHeal = HealStats{}
	if len(ops) == 0 {
		return
	}
	s := &c.wave
	s.begin()
	for _, op := range ops {
		n := op.Node
		if n.IsLeaf() || !n.Left.IsLeaf() || !n.Right.IsLeaf() {
			panic("core: RemoveLeaves requires an internal node with two leaf children")
		}
		_, pl := c.liveLeaf(n.Left)
		_, pr := c.liveLeaf(n.Right)
		if pl == nil || pr == nil {
			panic("core: RemoveLeaves children not tracked")
		}
		s.payloads = append(s.payloads, c.cellFor(n))
		s.insOps = append(s.insOps, rbsts.InsertOp[cellRef]{Gap: pl.Index()})
		s.oldLeaves = append(s.oldLeaves, pl, pr)
	}
	for i := range s.insOps {
		s.insOps[i].Payloads = s.payloads[i : i+1 : i+1]
	}
	rep := c.pt.BatchInsert(c.machine, s.insOps)
	c.lastHeal.RebuildLeaves += rep.RebuildLeaves
	for i, u := range s.payloads {
		c.cell(u).ptLeaf = rep.NewLeaves[i].ID()
	}
	s.note(rep)
	drep := c.pt.BatchDelete(c.machine, s.oldLeaves)
	c.lastHeal.RebuildLeaves += drep.RebuildLeaves
	s.note(drep)
	// Mutate T and mirror it: the children depart, keeping their cells
	// until the trace is repaired, and the collapsed node's initial label
	// flips from Identity to Const(NewValue).
	for i, op := range ops {
		u := s.payloads[i]
		x := c.cell(u)
		l, r := x.left, x.right
		c.cell(l).ptLeaf, c.cell(r).ptLeaf = 0, 0
		c.depart(l)
		c.depart(r)
		s.deleted = append(s.deleted, l, r)
		c.T.DeleteChildren(op.Node, op.NewValue)
		x.op, x.left, x.right = semiring.Op{A: op.Node.Value}, 0, 0
		s.relabeled = append(s.relabeled, u)
	}
	c.propagateStructural(s.deleted, s.relabeled)
	for _, u := range s.deleted {
		c.freeCell(u)
	}
}
