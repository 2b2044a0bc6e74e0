package rbsts

import (
	"fmt"
	"math"

	"dyntc/internal/arena"
	"dyntc/internal/pram"
	"dyntc/internal/prng"
)

// Tree is a random binary splitting tree with shortcuts over a sequence of
// leaves with payloads of type P, optionally aggregated into summaries of
// type S by a monoid (leaf, merge) pair. The zero value is not usable; use
// New.
//
// Tree is not safe for concurrent mutation; batch operations run as
// metered parallel steps on the pram.Machine they are given.
type Tree[P, S any] struct {
	root int32
	src  *prng.Source

	// leafFn/mergeFn implement the optional aggregation monoid. Both nil
	// means no aggregation is maintained.
	leafFn  func(P) S
	mergeFn func(S, S) S

	// shortcutMinHeight is the height threshold τ ≈ log₂log₂ n above which
	// nodes carry shortcut lists (§2's "height greater than log log n").
	shortcutMinHeight int32

	head, tail int32
	count      int

	// nodes holds every node. A node the current call released is
	// recycled, and so reused, only at the next insertion or deletion.
	nodes arena.Arena[Node[P, S], int32]

	// slab holds every shortcut list; slabFree[l] lists the offsets of
	// released lists of length l.
	slab     []int32
	slabFree [][]int32

	// Scratch reused from call to call, so a steady-size batch allocates
	// nothing here: the planner, the report handed back, the activation
	// and the per-rebuild leaf, spare-node and ancestor lists.
	pl       planner[P, S]
	rep      Report[P, S]
	act      Activation[P, S]
	actWork  actScratch[P, S]
	orig     []int32
	merged   []int32
	spare    []int32
	anc      []int32
	scDepths []int32
}

// New builds a fresh RBSTS over the given payloads (Lemma 2.1). leaf and
// merge may both be nil for an unaggregated tree. The build draws all
// randomness from seed.
func New[P, S any](seed uint64, leaf func(P) S, merge func(S, S) S, payloads []P) *Tree[P, S] {
	if (leaf == nil) != (merge == nil) {
		panic("rbsts: leaf and merge aggregation functions must be both set or both nil")
	}
	t := &Tree[P, S]{
		src:     prng.New(seed),
		leafFn:  leaf,
		mergeFn: merge,
	}
	t.pl = newPlanner(t)
	leaves := make([]int32, len(payloads))
	for i, p := range payloads {
		leaves[i] = t.newLeaf(p).id
	}
	t.rebuildAll(leaves)
	return t
}

// Root returns the root node (nil for an empty tree).
func (t *Tree[P, S]) Root() *Node[P, S] { return t.Node(t.root) }

// Len returns the number of leaves.
func (t *Tree[P, S]) Len() int { return t.count }

// Head returns the first leaf (nil when empty).
func (t *Tree[P, S]) Head() *Node[P, S] { return t.Node(t.head) }

// Tail returns the last leaf (nil when empty).
func (t *Tree[P, S]) Tail() *Node[P, S] { return t.Node(t.tail) }

// Leaves returns all leaves in order.
func (t *Tree[P, S]) Leaves() []*Node[P, S] {
	out := make([]*Node[P, S], 0, t.count)
	for l := t.head; l != 0; l = t.at(l).next {
		out = append(out, t.at(l))
	}
	return out
}

// LeafAt returns the leaf at position i, descending by subtree counts in
// O(depth) time.
func (t *Tree[P, S]) LeafAt(i int) *Node[P, S] {
	if i < 0 || i >= t.count {
		panic(fmt.Sprintf("rbsts: LeafAt(%d) out of range [0,%d)", i, t.count))
	}
	v := t.at(t.root)
	for !v.IsLeaf() {
		l := t.at(v.left)
		if i < int(l.leaves) {
			v = l
		} else {
			i -= int(l.leaves)
			v = t.at(v.right)
		}
	}
	return v
}

// logLog2 returns log₂ log₂ n, clamped to at least 1 (defined for n ≥ 1).
func logLog2(n int) float64 {
	if n < 4 {
		return 1
	}
	x := math.Log2(math.Log2(float64(n)))
	if x < 1 {
		return 1
	}
	return x
}

// threshold computes τ = ⌈log₂ log₂ n⌉ clamped to at least 1.
func threshold(n int) int32 {
	return int32(math.Ceil(logLog2(n)))
}

// newLeaf hands out a leaf carrying payload p.
func (t *Tree[P, S]) newLeaf(p P) *Node[P, S] {
	l := t.newNode()
	l.leaves, l.payload = 1, p
	if t.leafFn != nil {
		l.sum = t.leafFn(p)
	}
	return l
}

// rebuildAll rebuilds the entire tree over the given leaf nodes, reusing
// every internal node, and recomputes the shortcut threshold from the
// current size. It is also the escape hatch for threshold drift:
// insertion/deletion call it when ⌈log₂log₂ n⌉ moves, which mirrors the
// paper's observation that a tree whose size changes enough to shift the
// threshold is rebuilt entirely with high probability anyway. With no
// leaves it only resets the bookkeeping: clear is what empties a tree.
func (t *Tree[P, S]) rebuildAll(leaves []int32) {
	t.spare = t.spare[:0]
	if t.root != 0 {
		t.collectInternal(t.at(t.root))
	}
	t.count = len(leaves)
	t.shortcutMinHeight = threshold(t.count)
	if len(leaves) == 0 {
		t.root, t.head, t.tail = 0, 0, 0
		return
	}
	t.relink(leaves, 0, 0)
	t.at(t.tail).gapNode = 0
	t.root = t.buildSubtree(leaves, 0)
	t.releaseSpare()
	root := t.at(t.root)
	root.parent = 0
	t.assignShortcuts(root, t.ancestorStack(root))
}

// clear empties the tree, freeing every node.
func (t *Tree[P, S]) clear() {
	if t.root != 0 {
		t.collectInternal(t.at(t.root))
	}
	for l := t.head; l != 0; {
		n := t.at(l)
		l = n.next
		t.release(n)
	}
	t.releaseSpare()
	t.root = 0
	t.rebuildAll(nil)
}

// collectInternal appends the internal nodes of v's subtree to the spare
// list, dropping their shortcut lists: the rebuild that replaces the
// subtree builds the new one from them.
func (t *Tree[P, S]) collectInternal(v *Node[P, S]) {
	if v.IsLeaf() {
		return
	}
	t.dropShortcuts(v)
	t.spare = append(t.spare, v.id)
	t.collectInternal(t.at(v.left))
	t.collectInternal(t.at(v.right))
}

// releaseSpare frees the spare internal nodes a rebuild did not need.
func (t *Tree[P, S]) releaseSpare() {
	for _, id := range t.spare {
		t.release(t.at(id))
	}
	t.spare = t.spare[:0]
}

// relink splices the leaf linked list: leaves become consecutive, preceded
// by before and followed by after (either may be 0 for the tree ends).
func (t *Tree[P, S]) relink(leaves []int32, before, after int32) {
	for i, id := range leaves {
		l := t.at(id)
		if i > 0 {
			l.prev = leaves[i-1]
		} else {
			l.prev = before
		}
		if i+1 < len(leaves) {
			l.next = leaves[i+1]
		} else {
			l.next = after
		}
	}
	if before != 0 {
		t.at(before).next = leaves[0]
	} else {
		t.head = leaves[0]
	}
	if after != 0 {
		t.at(after).prev = leaves[len(leaves)-1]
	} else {
		t.tail = leaves[len(leaves)-1]
	}
}

// buildSubtree builds a fresh random-split subtree over the given leaf
// nodes rooted at the given depth, reusing the leaf nodes and taking its
// internal nodes from the spare list first. It sets structure, depth,
// height, leaf counts, sums and the gap correspondence, but not shortcuts
// (see assignShortcuts, which needs the ancestor stack). It returns the
// subtree root's ID.
func (t *Tree[P, S]) buildSubtree(leaves []int32, depth int32) int32 {
	n := len(leaves)
	if n == 1 {
		return t.buildLeaf(leaves[0], depth)
	}
	// The root split position is uniform over the n-1 gaps (§2's
	// construction procedure: "pick a random integer k in the range
	// 1..n-1").
	return t.buildSubtreeSplit(leaves, depth, 1+t.src.Intn(n-1))
}

// buildLeaf resets a reused leaf node's metadata for its new position.
func (t *Tree[P, S]) buildLeaf(id, depth int32) int32 {
	l := t.at(id)
	l.depth = depth
	l.height = 0
	l.leaves = 1
	l.left, l.right = 0, 0
	if t.leafFn != nil {
		l.sum = t.leafFn(l.payload)
	}
	return id
}

// buildSubtreeSplit builds a subtree whose root split is pinned at k
// (1 ≤ k ≤ n-1), with both sides fresh random subtrees. Insertion rebuilds
// use it to realize the paper's "(v1..vk) | (z, vk+1..vn)" root.
func (t *Tree[P, S]) buildSubtreeSplit(leaves []int32, depth int32, k int) int32 {
	n := len(leaves)
	if n == 1 {
		return t.buildLeaf(leaves[0], depth)
	}
	var v *Node[P, S]
	if s := len(t.spare); s > 0 {
		v = t.at(t.spare[s-1])
		t.spare = t.spare[:s-1]
	} else {
		v = t.newNode()
	}
	v.depth = depth
	v.left = t.buildSubtree(leaves[:k], depth+1)
	v.right = t.buildSubtree(leaves[k:], depth+1)
	l, r := t.at(v.left), t.at(v.right)
	l.parent, r.parent = v.id, v.id
	v.leaves = int32(n)
	v.height = 1 + max(l.height, r.height)
	if t.mergeFn != nil {
		v.sum = t.mergeFn(l.sum, r.sum)
	}
	// Gap correspondence: v's gap sits between leaves[k-1] and leaves[k].
	v.gapLeaf = leaves[k-1]
	t.at(leaves[k-1]).gapNode = v.id
	return v.id
}

// assignShortcuts walks a freshly built subtree assigning shortcut lists
// to nodes at or above the height threshold. anc is the ancestor stack
// indexed by depth (anc[d] is the ancestor at depth d); the caller seeds
// it with the path above the subtree and leaves room for the subtree's
// height, so the appends below never move it. Descent prunes at nodes
// below the threshold, since height strictly decreases downward along any
// path; the build's nodes carry no lists yet.
func (t *Tree[P, S]) assignShortcuts(v *Node[P, S], anc []int32) {
	if v.height < t.shortcutMinHeight {
		return
	}
	if v.depth > 0 {
		t.setShortcuts(v, anc)
	}
	if v.IsLeaf() {
		return
	}
	anc = append(anc, v.id)
	t.assignShortcuts(t.at(v.left), anc)
	t.assignShortcuts(t.at(v.right), anc)
}

// ancestorStack returns the root path above v indexed by depth:
// stack[d] is v's ancestor at depth d, for d < v.depth. Its storage is
// the tree's, with room for v's subtree below (see assignShortcuts).
func (t *Tree[P, S]) ancestorStack(v *Node[P, S]) []int32 {
	need := int(v.depth + v.height + 1)
	if cap(t.anc) < need {
		t.anc = make([]int32, need)
	}
	stack := t.anc[:v.depth]
	for a := v.parent; a != 0; a = t.at(a).parent {
		stack[t.at(a).depth] = a
	}
	return stack
}

// recomputeUp refreshes leaf counts, heights and sums on the root path
// starting at v's parent. It must be called after any subtree replacement.
func (t *Tree[P, S]) recomputeUp(v *Node[P, S]) {
	for id := v.parent; id != 0; {
		a := t.at(id)
		l, r := t.at(a.left), t.at(a.right)
		a.leaves = l.leaves + r.leaves
		a.height = 1 + max(l.height, r.height)
		if t.mergeFn != nil {
			a.sum = t.mergeFn(l.sum, r.sum)
		}
		id = a.parent
	}
}

// recomputeUpDiff is recomputeUp, additionally appending the ancestors
// whose height changed to changed. Rebuild reports expose the list so the
// dynamic contraction layer can reschedule exactly the gaps whose rounds
// moved.
func (t *Tree[P, S]) recomputeUpDiff(v *Node[P, S], changed []*Node[P, S]) []*Node[P, S] {
	for id := v.parent; id != 0; {
		a := t.at(id)
		l, r := t.at(a.left), t.at(a.right)
		a.leaves = l.leaves + r.leaves
		if h := 1 + max(l.height, r.height); h != a.height {
			a.height = h
			changed = append(changed, a)
		}
		if t.mergeFn != nil {
			a.sum = t.mergeFn(l.sum, r.sum)
		}
		id = a.parent
	}
	return changed
}

// UpdateLeaf replaces the payload of a leaf and recomputes sums along the
// root path (the sequential single-update path of Theorem 4.2: O(log n)
// expected with one processor).
func (t *Tree[P, S]) UpdateLeaf(leaf *Node[P, S], payload P) {
	leaf.payload = payload
	if t.leafFn != nil {
		leaf.sum = t.leafFn(payload)
	}
	t.recomputeUp(leaf)
}

// BatchUpdate replaces payloads of a set of leaves and recomputes sums over
// the parse tree PT(U) in parallel: one activation (Theorem 2.1) plus one
// recomputation round per parse-tree level.
func (t *Tree[P, S]) BatchUpdate(m *pram.Machine, leaves []*Node[P, S], payloads []P) pram.Metrics {
	if len(leaves) != len(payloads) {
		panic("rbsts: BatchUpdate length mismatch")
	}
	if m == nil {
		m = pram.Sequential()
	}
	start := m.Metrics()
	m.Step(len(leaves), func(i int) {
		leaves[i].payload = payloads[i]
		if t.leafFn != nil {
			leaves[i].sum = t.leafFn(payloads[i])
		}
	})
	if t.mergeFn != nil {
		act := t.Activate(m, leaves)
		t.recomputeSums(m, act)
		act.Release(m)
	}
	end := m.Metrics()
	return pram.Metrics{Steps: end.Steps - start.Steps, Work: end.Work - start.Work, MaxProcs: end.MaxProcs}
}

// recomputeSums recomputes aggregation sums bottom-up over an activated
// parse tree, one parallel round per height level.
func (t *Tree[P, S]) recomputeSums(m *pram.Machine, act *Activation[P, S]) {
	if t.mergeFn == nil {
		return
	}
	byHeight := make(map[int32][]*Node[P, S])
	var maxH int32
	for _, n := range act.Nodes {
		if n.IsLeaf() {
			continue
		}
		byHeight[n.height] = append(byHeight[n.height], n)
		if n.height > maxH {
			maxH = n.height
		}
	}
	for h := int32(1); h <= maxH; h++ {
		level := byHeight[h]
		if len(level) == 0 {
			continue
		}
		m.Step(len(level), func(i int) {
			n := level[i]
			n.sum = t.mergeFn(t.at(n.left).sum, t.at(n.right).sum)
		})
	}
}
