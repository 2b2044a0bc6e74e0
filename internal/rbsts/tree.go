package rbsts

import (
	"fmt"
	"math"

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
	root *Node[P, S]
	src  *prng.Source

	// leafFn/mergeFn implement the optional aggregation monoid. Both nil
	// means no aggregation is maintained.
	leafFn  func(P) S
	mergeFn func(S, S) S

	// shortcutMinHeight is the height threshold τ ≈ log₂log₂ n above which
	// nodes carry shortcut lists (§2's "height greater than log log n").
	shortcutMinHeight int

	head, tail *Node[P, S]
	count      int

	// rebuildEpoch increments every time any subtree is rebuilt; used by
	// clients to detect staleness and by tests.
	rebuildEpoch int64
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
	leavesN := make([]*Node[P, S], len(payloads))
	for i, p := range payloads {
		leavesN[i] = &Node[P, S]{leaves: 1, payload: p}
		if t.leafFn != nil {
			leavesN[i].sum = t.leafFn(p)
		}
	}
	t.rebuildAll(leavesN)
	return t
}

// Root returns the root node (nil for an empty tree).
func (t *Tree[P, S]) Root() *Node[P, S] { return t.root }

// Len returns the number of leaves.
func (t *Tree[P, S]) Len() int { return t.count }

// Head returns the first leaf (nil when empty).
func (t *Tree[P, S]) Head() *Node[P, S] { return t.head }

// Tail returns the last leaf (nil when empty).
func (t *Tree[P, S]) Tail() *Node[P, S] { return t.tail }

// RebuildEpoch returns a counter incremented on every subtree rebuild.
func (t *Tree[P, S]) RebuildEpoch() int64 { return t.rebuildEpoch }

// Leaves returns all leaves in order.
func (t *Tree[P, S]) Leaves() []*Node[P, S] {
	out := make([]*Node[P, S], 0, t.count)
	for l := t.head; l != nil; l = l.next {
		out = append(out, l)
	}
	return out
}

// LeafAt returns the leaf at position i, descending by subtree counts in
// O(depth) time.
func (t *Tree[P, S]) LeafAt(i int) *Node[P, S] {
	if i < 0 || i >= t.count {
		panic(fmt.Sprintf("rbsts: LeafAt(%d) out of range [0,%d)", i, t.count))
	}
	v := t.root
	for !v.IsLeaf() {
		if i < v.left.leaves {
			v = v.left
		} else {
			i -= v.left.leaves
			v = v.right
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
func threshold(n int) int {
	return int(math.Ceil(logLog2(n)))
}

// rebuildAll rebuilds the entire tree over the given leaf nodes and
// recomputes the shortcut threshold from the current size. It is also the
// escape hatch for threshold drift: insertion/deletion call it when
// ⌈log₂log₂ n⌉ moves, which mirrors the paper's observation that a tree
// whose size changes enough to shift the threshold is rebuilt entirely with
// high probability anyway.
func (t *Tree[P, S]) rebuildAll(leaves []*Node[P, S]) {
	t.count = len(leaves)
	t.shortcutMinHeight = threshold(t.count)
	t.rebuildEpoch++
	if len(leaves) == 0 {
		t.root, t.head, t.tail = nil, nil, nil
		return
	}
	t.relink(leaves, nil, nil)
	t.root = t.buildSubtree(leaves, 0)
	t.root.parent = nil
	t.assignShortcuts(t.root, make([]*Node[P, S], 0, 64))
}

// relink splices the leaf linked list: leaves become consecutive, preceded
// by before and followed by after (either may be nil for the tree ends).
func (t *Tree[P, S]) relink(leaves []*Node[P, S], before, after *Node[P, S]) {
	for i, l := range leaves {
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
	if before != nil {
		before.next = leaves[0]
	} else {
		t.head = leaves[0]
	}
	if after != nil {
		after.prev = leaves[len(leaves)-1]
	} else {
		t.tail = leaves[len(leaves)-1]
	}
}

// buildSubtree builds a fresh random-split subtree over the given leaf
// nodes rooted at the given depth, reusing the leaf Node objects. It sets
// structure, depth, height, leaf counts, sums and the gap correspondence,
// but not shortcuts (see assignShortcuts, which needs the ancestor stack).
func (t *Tree[P, S]) buildSubtree(leaves []*Node[P, S], depth int) *Node[P, S] {
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
func (t *Tree[P, S]) buildLeaf(l *Node[P, S], depth int) *Node[P, S] {
	l.depth = depth
	l.height = 0
	l.leaves = 1
	l.left, l.right = nil, nil
	l.shortcuts = nil
	if t.leafFn != nil {
		l.sum = t.leafFn(l.payload)
	}
	return l
}

// buildSubtreeSplit builds a subtree whose root split is pinned at k
// (1 ≤ k ≤ n-1), with both sides fresh random subtrees. Insertion rebuilds
// use it to realize the paper's "(v1..vk) | (z, vk+1..vn)" root.
func (t *Tree[P, S]) buildSubtreeSplit(leaves []*Node[P, S], depth, k int) *Node[P, S] {
	n := len(leaves)
	if n == 1 {
		return t.buildLeaf(leaves[0], depth)
	}
	v := &Node[P, S]{depth: depth}
	v.left = t.buildSubtree(leaves[:k], depth+1)
	v.right = t.buildSubtree(leaves[k:], depth+1)
	v.left.parent = v
	v.right.parent = v
	v.leaves = n
	v.height = 1 + max(v.left.height, v.right.height)
	if t.mergeFn != nil {
		v.sum = t.mergeFn(v.left.sum, v.right.sum)
	}
	// Gap correspondence: v's gap sits between leaves[k-1] and leaves[k].
	v.gapLeaf = leaves[k-1]
	leaves[k-1].gapNode = v
	return v
}

// assignShortcuts walks the subtree assigning shortcut lists to nodes at or
// above the height threshold. anc is the ancestor stack indexed by depth
// (anc[d] is the ancestor at depth d); the caller seeds it with the path
// above the subtree. Descent prunes at nodes below the threshold, since
// height strictly decreases downward along any path.
func (t *Tree[P, S]) assignShortcuts(v *Node[P, S], anc []*Node[P, S]) {
	if v.height < t.shortcutMinHeight {
		v.shortcuts = nil
		// Children are strictly shorter: nothing below needs shortcuts,
		// but stale lists from a previous epoch must still be dropped.
		t.clearShortcuts(v)
		return
	}
	if v.depth > 0 {
		depths := shortcutDepths(v.depth)
		sc := make([]*Node[P, S], len(depths))
		for i, d := range depths {
			sc[i] = anc[d]
		}
		v.shortcuts = sc
	} else {
		v.shortcuts = nil
	}
	if v.IsLeaf() {
		return
	}
	anc = append(anc, v)
	t.assignShortcuts(v.left, anc)
	t.assignShortcuts(v.right, anc)
}

// clearShortcuts removes shortcut lists from an entire subtree.
func (t *Tree[P, S]) clearShortcuts(v *Node[P, S]) {
	if v.shortcuts != nil {
		v.shortcuts = nil
	}
	if !v.IsLeaf() {
		t.clearShortcuts(v.left)
		t.clearShortcuts(v.right)
	}
}

// ancestorStack returns the root path above v indexed by depth:
// stack[d] is v's ancestor at depth d, for d < v.depth.
func (t *Tree[P, S]) ancestorStack(v *Node[P, S]) []*Node[P, S] {
	stack := make([]*Node[P, S], v.depth)
	for a := v.parent; a != nil; a = a.parent {
		stack[a.depth] = a
	}
	return stack
}

// recomputeUp refreshes leaf counts, heights and sums on the root path
// starting at v's parent. It must be called after any subtree replacement.
func (t *Tree[P, S]) recomputeUp(v *Node[P, S]) {
	for a := v.parent; a != nil; a = a.parent {
		a.leaves = a.left.leaves + a.right.leaves
		a.height = 1 + max(a.left.height, a.right.height)
		if t.mergeFn != nil {
			a.sum = t.mergeFn(a.left.sum, a.right.sum)
		}
	}
}

// recomputeUpDiff is recomputeUp, additionally returning the ancestors
// whose height changed. Rebuild reports expose the list so the dynamic
// contraction layer can reschedule exactly the gaps whose rounds moved.
func (t *Tree[P, S]) recomputeUpDiff(v *Node[P, S]) []*Node[P, S] {
	var changed []*Node[P, S]
	for a := v.parent; a != nil; a = a.parent {
		a.leaves = a.left.leaves + a.right.leaves
		h := 1 + max(a.left.height, a.right.height)
		if h != a.height {
			a.height = h
			changed = append(changed, a)
		}
		if t.mergeFn != nil {
			a.sum = t.mergeFn(a.left.sum, a.right.sum)
		}
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
		t.RecomputeSums(m, act)
		act.Release(m)
	}
	end := m.Metrics()
	return pram.Metrics{Steps: end.Steps - start.Steps, Work: end.Work - start.Work, MaxProcs: end.MaxProcs}
}

// RecomputeSums recomputes aggregation sums bottom-up over an activated
// parse tree, one parallel round per height level.
func (t *Tree[P, S]) RecomputeSums(m *pram.Machine, act *Activation[P, S]) {
	if t.mergeFn == nil {
		return
	}
	byHeight := make(map[int][]*Node[P, S])
	maxH := 0
	for _, n := range act.Nodes {
		if n.IsLeaf() {
			continue
		}
		byHeight[n.height] = append(byHeight[n.height], n)
		if n.height > maxH {
			maxH = n.height
		}
	}
	for h := 1; h <= maxH; h++ {
		level := byHeight[h]
		if len(level) == 0 {
			continue
		}
		m.Step(len(level), func(i int) {
			n := level[i]
			n.sum = t.mergeFn(n.left.sum, n.right.sum)
		})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
