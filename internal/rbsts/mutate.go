package rbsts

import (
	"cmp"
	"fmt"
	"slices"

	"dyntc/internal/pram"
)

// InsertOp requests insertion of Payloads (in order) at gap Gap: the new
// leaves end up immediately before the leaf currently at index Gap, with
// Gap == Len() meaning "after the last leaf". Gap indices in one batch all
// refer to the tree state before the batch.
type InsertOp[P any] struct {
	Gap      int
	Payloads []P
}

// Report summarizes a batch mutation: which subtrees were rebuilt (their
// new roots) and how many leaves those rebuilds touched. The dynamic
// contraction layer uses Rebuilt to locate its wound. Its slices are the
// tree's storage and, like the handles in them, valid until the next
// insertion or deletion.
type Report[P, S any] struct {
	// Rebuilt holds the roots of freshly rebuilt subtrees (after the
	// mutation; internal nodes inside them were rebuilt in place from the
	// replaced subtree's nodes).
	Rebuilt []*Node[P, S]
	// RebuildLeaves is the total leaf count over all rebuilt subtrees —
	// the paper's random variable S of Theorem 2.2, whose expectation is
	// O(|U| log n).
	RebuildLeaves int
	// NewLeaves holds the leaf nodes created for inserted payloads, in
	// batch order (ops[0].Payloads[0], ops[0].Payloads[1], ...). Empty for
	// deletions.
	NewLeaves []*Node[P, S]
	// HeightChanged holds the surviving ancestors (outside any rebuilt
	// subtree) whose height changed when metadata was refreshed up the root
	// paths. Their gaps keep their old gap leaves but fire at a new round,
	// so the contraction layer must reschedule exactly these records.
	HeightChanged []*Node[P, S]
	// GapRelinked holds surviving internal nodes whose gapLeaf link was
	// repointed to a different leaf (the leaf just left of a rebuilt span
	// was removed or replaced). Their records change raked leaf.
	GapRelinked []*Node[P, S]
}

// beginReport readies the tree's report for a new call, keeping the
// storage of its slices.
func (t *Tree[P, S]) beginReport() *Report[P, S] {
	r := &t.rep
	*r = Report[P, S]{Rebuilt: r.Rebuilt[:0], NewLeaves: r.NewLeaves[:0],
		HeightChanged: r.HeightChanged[:0], GapRelinked: r.GapRelinked[:0]}
	return r
}

// pendingItem is one payload waiting to be spliced into a rebuild, at gap
// index gap relative to the plan subtree's original leaves; seq is the
// item's position in batch order and doubles as the within-gap tiebreak.
type pendingItem[P any] struct {
	gap     int
	seq     int
	payload P
}

// rebuildPlan is a scheduled randomized rebuild of the subtree rooted at
// node, with items to splice in and/or leaves to remove.
//
// pinSeq implements the paper's insertion rebuild exactly: "build a new
// RBSTS with root w and subtrees containing the leaves (v1,...,vk) and
// (z, vk+1,...,vn)" — the new root's split is PINNED at the inserted
// item's position rather than drawn fresh. Pinning is what makes the
// 1/m-coin walk produce exactly the uniform split distribution: the
// structural descent realizes every new split value except the insertion
// gap itself, and the pinned rebuild supplies that one missing value with
// the complementary probability. (A fresh random split here would
// re-randomize an already-conditioned choice and bias splits away from
// the insertion gap; the chi-square tests in distribution_test.go catch
// this.) pinSeq < 0 means no pin (deletion-triggered plans re-randomize a
// deterministically chosen region, which is exact as-is).
type rebuildPlan[P any] struct {
	node  int32
	items []pendingItem[P]
	// removals counts the plan's leaves the batch deletes (members of
	// the planner's removing set).
	removals int
	dead     bool // subsumed into an ancestor plan
	pinSeq   int  // seq of the split-pinning item, or -1
}

// planner accumulates rebuild plans for one batch. The tree owns the one
// instance; reset keeps its storage for the next batch.
type planner[P, S any] struct {
	t     *Tree[P, S]
	plans []rebuildPlan[P]
	// byNode maps the root of every live plan to its index in plans.
	byNode map[int32]int
	// removing holds the leaves a deletion batch removes.
	removing map[int32]struct{}
	// pending counts, per node on an insertion walk, the batch items
	// already routed through it; path is the walk being taken.
	pending map[int32]int32
	path    []int32
	// base and sorted order an insertion batch's ops by gap.
	base, sorted []int
}

func newPlanner[P, S any](t *Tree[P, S]) planner[P, S] {
	return planner[P, S]{t: t, byNode: make(map[int32]int),
		removing: make(map[int32]struct{}), pending: make(map[int32]int32)}
}

func (pl *planner[P, S]) reset() {
	pl.plans = pl.plans[:0]
	clear(pl.byNode)
	clear(pl.removing)
	clear(pl.pending)
}

// origLeafOffset returns the number of original leaves of v lying strictly
// left of d's subtree (v must be an ancestor of d).
func (t *Tree[P, S]) origLeafOffset(d, v *Node[P, S]) int {
	off := 0
	for c := d; c != v; {
		p := t.at(c.parent)
		if p.right == c.id {
			off += int(t.at(p.left).leaves)
		}
		c = p
	}
	return off
}

// planAt returns the plan rooted at node, creating it if needed, and in
// either case subsumes plans strictly inside node's subtree: a fresh
// rebuild of the larger subtree re-draws all interior randomness, so
// folding nested plans in keeps the distribution exact. The pointer is
// valid until the next planAt.
func (pl *planner[P, S]) planAt(node *Node[P, S]) *rebuildPlan[P] {
	i, ok := pl.byNode[node.id]
	if !ok {
		i = len(pl.plans)
		if i < cap(pl.plans) {
			pl.plans = pl.plans[:i+1]
			pl.plans[i] = rebuildPlan[P]{items: pl.plans[i].items[:0]}
		} else {
			pl.plans = append(pl.plans, rebuildPlan[P]{})
		}
		pl.plans[i].node, pl.plans[i].pinSeq = node.id, -1
		pl.byNode[node.id] = i
	}
	p := &pl.plans[i]
	for j := range pl.plans {
		q := &pl.plans[j]
		if j == i || q.dead {
			continue
		}
		if qn := pl.t.at(q.node); node.isAncestorOf(qn) {
			off := pl.t.origLeafOffset(qn, node)
			for _, it := range q.items {
				it.gap += off
				p.items = append(p.items, it)
			}
			p.removals += q.removals
			q.dead = true
			delete(pl.byNode, q.node)
		}
	}
	return p
}

// markedAncestor returns the live plan at the closest marked ancestor of v
// (possibly v itself), or nil.
func (pl *planner[P, S]) markedAncestor(v *Node[P, S]) *rebuildPlan[P] {
	for a := v.id; a != 0; a = pl.t.at(a).parent {
		if i, ok := pl.byNode[a]; ok {
			return &pl.plans[i]
		}
	}
	return nil
}

// liftIfEmpty escalates a plan to its parent while the plan would empty its
// subtree entirely (a full binary tree cannot host an empty child). The
// larger fresh rebuild remains distribution-exact.
func (pl *planner[P, S]) liftIfEmpty(p *rebuildPlan[P]) {
	for {
		n := pl.t.at(p.node)
		if n.parent == 0 || p.removals < int(n.leaves) || len(p.items) > 0 {
			return
		}
		p = pl.planAt(pl.t.at(n.parent))
	}
}

// BatchInsert inserts a set of payloads at the given gaps (Theorem 2.2).
// Each inserted leaf walks (logically) down from the root; at a subtree of
// effective size m the walk triggers a rebuild of that subtree with
// probability 1/m, which preserves the random-split distribution exactly
// (the split value a structural descent cannot produce is exactly the one
// the rebuild realizes). Walks stopping inside an already-scheduled rebuild
// simply join it: the fresh rebuild of the final content dominates any
// interior randomness.
func (t *Tree[P, S]) BatchInsert(m *pram.Machine, ops []InsertOp[P]) Report[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	t.nodes.Recycle()
	rep := t.beginReport()
	pl := &t.pl
	pl.reset()
	total := 0
	pl.base = pl.base[:0]
	pl.sorted = pl.sorted[:0]
	for i, op := range ops {
		if op.Gap < 0 || op.Gap > t.count {
			panic(fmt.Sprintf("rbsts: insert gap %d out of range [0,%d]", op.Gap, t.count))
		}
		pl.base = append(pl.base, total)
		pl.sorted = append(pl.sorted, i)
		total += len(op.Payloads)
	}
	if total == 0 {
		return *rep
	}
	base, sorted := pl.base, pl.sorted
	slices.SortStableFunc(sorted, func(a, b int) int { return cmp.Compare(ops[a].Gap, ops[b].Gap) })
	rep.NewLeaves = slices.Grow(rep.NewLeaves, total)[:total]

	// Empty tree: build everything fresh.
	if t.count == 0 {
		leaves := t.merged[:0]
		for _, oi := range sorted {
			for j, p := range ops[oi].Payloads {
				l := t.newLeaf(p)
				rep.NewLeaves[base[oi]+j] = l
				leaves = append(leaves, l.id)
			}
		}
		t.merged = leaves
		t.rebuildAll(leaves)
		rep.Rebuilt = append(rep.Rebuilt, t.at(t.root))
		rep.RebuildLeaves = len(leaves)
		return *rep
	}

	var walkSpan, walkWork int64
	for _, oi := range sorted {
		op := ops[oi]
		for j, payload := range op.Payloads {
			seq := base[oi] + j
			v := t.at(t.root)
			gRel := op.Gap
			path := pl.path[:0]
			var steps int64
			for {
				steps++
				item := pendingItem[P]{gap: gRel, seq: seq, payload: payload}
				if i, ok := pl.byNode[v.id]; ok {
					pl.plans[i].items = append(pl.plans[i].items, item)
					break
				}
				mEff := int(v.leaves + pl.pending[v.id])
				if v.IsLeaf() || t.src.Bernoulli(1, mEff) {
					// No plan is rooted at v, so this item's position pins
					// the new root split (the paper's insertion rebuild;
					// see rebuildPlan).
					p := pl.planAt(v)
					p.pinSeq = seq
					p.items = append(p.items, item)
					break
				}
				path = append(path, v.id)
				if l := t.at(v.left); gRel <= int(l.leaves) {
					v = l
				} else {
					gRel -= int(l.leaves)
					v = t.at(v.right)
				}
			}
			for _, n := range path {
				pl.pending[n]++
			}
			pl.pending[v.id]++
			pl.path = path
			walkWork += steps
			if steps > walkSpan {
				walkSpan = steps
			}
		}
	}
	// The walks correspond to the parallel decision phase: activation of
	// the insertion paths plus one coin round per level.
	m.ChargeSpan(walkSpan, walkWork, int64(total))

	t.executePlans(m, rep)
	t.maybeRethreshold(rep)
	return *rep
}

// BatchDelete removes the given leaves (Theorem 2.3 / §2 "deletions can be
// handled similarly"). For each deleted leaf z the rebuild site is the
// higher of z's two adjacent-gap ancestors (for boundary leaves, the
// parent): rebuilding that subtree without z refreshes exactly the gaps
// whose priorities the treap-equivalent view requires re-randomized, so the
// random-split distribution is preserved exactly. Expected rebuild size is
// O(log n) per deleted leaf. Nil and internal nodes are skipped, and so
// are repeats; a leaf that is no longer in the tree (already deleted, or
// of another tree) panics before anything changes.
func (t *Tree[P, S]) BatchDelete(m *pram.Machine, leaves []*Node[P, S]) Report[P, S] {
	if m == nil {
		m = pram.Sequential()
	}
	t.nodes.Recycle()
	rep := t.beginReport()
	if len(leaves) == 0 {
		return *rep
	}
	for _, z := range leaves {
		if z != nil && z.IsLeaf() && (z.t != t || z.leaves == 0 || (z.parent == 0 && z.id != t.root)) {
			panic("rbsts: BatchDelete of a leaf that is not in the tree")
		}
	}
	pl := &t.pl
	pl.reset()
	var walkSpan, walkWork int64
	for _, z := range leaves {
		if z == nil || !z.IsLeaf() {
			continue
		}
		if _, dup := pl.removing[z.id]; dup {
			continue
		}
		pl.removing[z.id] = struct{}{}
		if z.id == t.root {
			// Deleting the only leaf empties the tree.
			t.clear()
			return *rep
		}
		// Join an enclosing scheduled rebuild when one exists.
		if p := pl.markedAncestor(z); p != nil {
			p.removals++
			pl.liftIfEmpty(p)
			continue
		}
		v := t.at(z.parent)
		var other *Node[P, S]
		if z.id == v.left {
			if z.prev != 0 {
				other = t.Node(t.at(z.prev).gapNode)
			}
		} else {
			other = t.Node(z.gapNode)
		}
		if other != nil && other.depth < v.depth {
			v = other
		}
		walkWork += int64(z.depth-v.depth) + 1
		if int64(z.depth-v.depth) > walkSpan {
			walkSpan = int64(z.depth - v.depth)
		}
		p := pl.planAt(v)
		p.removals++
		pl.liftIfEmpty(p)
	}
	m.ChargeSpan(walkSpan+1, walkWork, int64(len(pl.removing)))

	// A plan that empties the whole tree.
	for _, p := range pl.plans {
		if !p.dead && p.node == t.root && p.removals == t.count && len(p.items) == 0 {
			t.clear()
			return *rep
		}
	}
	t.executePlans(m, rep)
	t.maybeRethreshold(rep)
	return *rep
}

// executePlans runs every surviving rebuild plan: collect the subtree's
// leaves, drop removals, splice insertions, rebuild from the subtree's
// own internal nodes, reattach, and refresh metadata up the root path.
// Plans are disjoint subtrees, so the execution order only matters for
// RNG determinism (creation order).
func (t *Tree[P, S]) executePlans(m *pram.Machine, rep *Report[P, S]) {
	pl := &t.pl
	var rebuildWork int64
	var rebuildSpan int64
	for pi := range pl.plans {
		p := &pl.plans[pi]
		if p.dead {
			continue
		}
		node := t.at(p.node)
		// Collect original leaves of the subtree, left to right, via the
		// leaf list between the subtree's extreme leaves.
		first := node
		for !first.IsLeaf() {
			first = t.at(first.left)
		}
		last := node
		for !last.IsLeaf() {
			last = t.at(last.right)
		}
		orig := t.orig[:0]
		for l := first.id; ; l = t.at(l).next {
			orig = append(orig, l)
			if l == last.id {
				break
			}
		}
		t.orig = orig
		before, after := first.prev, last.next
		outerGap := last.gapNode // gap to the right of the subtree's span
		parent, depth := node.parent, node.depth
		wasLeft := parent != 0 && t.at(parent).left == node.id
		// The rebuild takes its internal nodes from here first.
		t.spare = t.spare[:0]
		t.collectInternal(node)

		// Splice: walk gaps 0..len(orig), emitting pending items and
		// surviving originals in order; removed leaves are freed.
		items := p.items
		slices.SortStableFunc(items, func(a, b pendingItem[P]) int {
			if a.gap != b.gap {
				return cmp.Compare(a.gap, b.gap)
			}
			return cmp.Compare(a.seq, b.seq)
		})
		merged := t.merged[:0]
		pinPos := -1
		ii := 0
		for gap := 0; gap <= len(orig); gap++ {
			for ii < len(items) && items[ii].gap == gap {
				l := t.newLeaf(items[ii].payload)
				rep.NewLeaves[items[ii].seq] = l
				if items[ii].seq == p.pinSeq {
					pinPos = len(merged)
				}
				merged = append(merged, l.id)
				ii++
			}
			if gap == len(orig) {
				break
			}
			if _, gone := pl.removing[orig[gap]]; gone {
				t.release(t.at(orig[gap]))
			} else {
				merged = append(merged, orig[gap])
			}
		}
		t.merged = merged
		if len(merged) == 0 {
			panic("rbsts: internal error: plan emptied a subtree (lift failed)")
		}

		var fresh int32
		if pinPos >= 0 && len(merged) > 1 {
			// Pinned insertion rebuild: the new root separates the pinned
			// item at its gap (split = pinPos, or 1 when the item is the
			// leftmost leaf); both sides are fresh random subtrees.
			split := pinPos
			if split == 0 {
				split = 1
			}
			fresh = t.buildSubtreeSplit(merged, depth, split)
		} else {
			fresh = t.buildSubtree(merged, depth)
		}
		t.releaseSpare()
		f := t.at(fresh)
		f.parent = parent
		switch {
		case parent == 0:
			t.root = fresh
		case wasLeft:
			t.at(parent).left = fresh
		default:
			t.at(parent).right = fresh
		}
		t.relink(merged, before, after)
		newLast := t.at(merged[len(merged)-1])
		newLast.gapNode = outerGap
		if outerGap != 0 {
			og := t.at(outerGap)
			if og.gapLeaf != newLast.id {
				rep.GapRelinked = append(rep.GapRelinked, og)
			}
			og.gapLeaf = newLast.id
		}
		t.count += len(merged) - len(orig)
		rep.HeightChanged = t.recomputeUpDiff(f, rep.HeightChanged)
		stack := t.ancestorStack(f)
		t.assignShortcuts(f, stack)
		// Ancestors whose height just crossed the shortcut threshold
		// (because the subtree below grew) must gain shortcut lists now so
		// the activation invariant — every node at or above τ in height
		// carries shortcuts — keeps holding between full rebuilds.
		for _, id := range stack {
			if a := t.at(id); a.height >= t.shortcutMinHeight && a.depth > 0 && a.sc == 0 {
				t.setShortcuts(a, stack)
			}
		}
		rep.Rebuilt = append(rep.Rebuilt, f)
		rep.RebuildLeaves += len(merged)
		rebuildWork += int64(2 * len(merged))
		if s := int64(f.height) + 1; s > rebuildSpan {
			rebuildSpan = s
		}
	}
	// Rebuild cost in the PRAM model (Lemma 2.1): O(log S) span, O(S) work.
	if rebuildWork > 0 {
		m.ChargeSpan(rebuildSpan, rebuildWork, rebuildWork/2+1)
	}
}

// maybeRethreshold rebuilds the whole tree when log₂log₂ n has drifted a
// full unit away from the stored shortcut threshold τ. The paper's relaxed
// condition (§2: shortcuts required at subtree depth ≥ 2·log log n, only
// forbidden below ½·log log n) tolerates a wide band, and the paper notes a
// tree whose size moved that much "will be entirely rebuilt with high
// probability" anyway. The hysteresis also prevents thrashing when n sits
// exactly on a ⌈log₂log₂ n⌉ boundary (e.g. 2^16 ± 1).
func (t *Tree[P, S]) maybeRethreshold(rep *Report[P, S]) {
	if t.count == 0 {
		return
	}
	x := logLog2(t.count)
	tau := float64(t.shortcutMinHeight)
	if x < tau+1 && x > tau-1.5 {
		return
	}
	leaves := t.merged[:0]
	for l := t.head; l != 0; l = t.at(l).next {
		leaves = append(leaves, l)
	}
	t.merged = leaves
	t.rebuildAll(leaves)
	rep.Rebuilt = append(rep.Rebuilt[:0], t.at(t.root))
	rep.RebuildLeaves = t.count
}

// InsertAfter inserts payloads immediately after the given leaf (or at the
// very front when after is nil), returning the new leaves in order.
func (t *Tree[P, S]) InsertAfter(m *pram.Machine, after *Node[P, S], payloads []P) []*Node[P, S] {
	gap := 0
	if after != nil {
		gap = after.Index() + 1
	}
	rep := t.BatchInsert(m, []InsertOp[P]{{Gap: gap, Payloads: payloads}})
	return slices.Clone(rep.NewLeaves)
}

// Delete removes a single leaf.
func (t *Tree[P, S]) Delete(m *pram.Machine, leaf *Node[P, S]) {
	t.BatchDelete(m, []*Node[P, S]{leaf})
}
