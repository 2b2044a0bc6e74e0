// Package rbsts implements the random binary splitting tree with shortcuts
// (RBSTS) of Reif & Tate, SPAA'94, §2 — the data structure underlying every
// dynamic algorithm in this library.
//
// An RBSTS is a full binary tree over a sequence of leaves whose shape is
// drawn from the random-split distribution: the root separates the leaves
// after a uniformly random position, recursively. Such trees have expected
// depth O(log n). Every node stores its depth, subtree leaf count and
// height; nodes whose subtree height reaches the tree's shortcut threshold
// (≈ log log n) additionally store a geometric list of ancestor shortcuts,
// entry i pointing to the ancestor at depth ⌊d·(1-(2/3)^i)⌋ (realized with
// an integer 2/3 recurrence; see appendShortcutDepths). Shortcuts are what
// let the activation procedure of Theorem 2.1 identify a parse tree PT(U)
// in O(log(|U| log n)) rounds rather than Θ(depth).
//
// The tree supports, with the paper's expected bounds:
//
//   - construction from a leaf sequence (Lemma 2.1),
//   - parse-tree identification and processor activation (Theorem 2.1),
//   - batch leaf insertion and deletion via randomized subtree rebuilds
//     (Theorems 2.2/2.3),
//   - an optional monoid aggregation (payload summaries combined bottom-up),
//     which is how §3's incremental list prefix and §5's applications
//     augment the structure.
//
// Internal nodes correspond 1–1 with gaps between adjacent leaves; the
// GapNode/GapLeaf links expose that correspondence to the dynamic tree
// contraction layer, which schedules one rake per gap at a round equal to
// the gap node's height (§4.2).
//
// Nodes live by value in the Tree's internal/arena chunked arena, the
// same kind that holds the contraction's rake records, and link to each
// other by int32 IDs; shortcut lists live in one int32 slab. Chunks never
// move, so a *Node handle stays valid while the tree grows. Lifetimes:
//
//   - a leaf's handle is stable for as long as the leaf is in the tree;
//   - a rebuild builds the new subtree from the replaced subtree's own
//     internal nodes, so an internal node's handle may name a different
//     gap after any insertion or deletion;
//   - a deleted leaf, and an internal node a deletion no longer needs, is
//     freed: it reads as detached (no parent, no links) but keeps its
//     payload until the next insertion or deletion, which may reuse it.
//     A Report, and every handle in it, is likewise valid until the next
//     insertion or deletion.
package rbsts

// Node is a node of the splitting tree. Leaves carry the client payload P;
// internal nodes carry the aggregated summary S of their subtree (when the
// tree has an aggregator). A Node lives in its Tree's arena; see the
// package comment for how long a handle stays valid. In particular a
// deleted leaf's handle is invalid after the next insertion or deletion.
type Node[P, S any] struct {
	// t is the tree whose arena holds the node; the handle methods resolve
	// links through it.
	t *Tree[P, S]

	// payload is the client value (leaves only).
	payload P
	// sum is the aggregated summary of the subtree (maintained only when
	// the tree has an aggregator; on leaves it caches leafFn(payload)).
	sum S

	// id names the node in t's arena; every link below is such an ID, 0
	// naming none.
	id                  int32
	parent, left, right int32

	// Leaf-list links (leaves only): the leaves form a doubly linked list
	// in left-to-right order.
	next, prev int32

	// Gap correspondence: for an internal node, gapLeaf is the rightmost
	// leaf of its left subtree (the leaf immediately left of the node's
	// gap). For a leaf, gapNode is the internal node owning the gap to the
	// leaf's immediate right (none for the last leaf).
	gapLeaf, gapNode int32

	// leaves is the number of leaves in this subtree (1 for a leaf, 0
	// once the node is freed).
	leaves int32
	// depth is the number of edges from the root (root = 0).
	depth int32
	// height is the subtree height in edges (leaf = 0).
	height int32

	// active is the CRCW ACTIVE flag of §2, set during activation via
	// atomic test-and-set and cleared when the parse tree is released.
	active int32

	// sc is the offset of the node's shortcut list in t's slab, 0 for
	// none. Entry i names the ancestor at the i-th shortcut depth (see
	// appendShortcutDepths); entry 0 is the root. Only nodes with height
	// >= the tree's shortcut threshold must carry one.
	sc int32
}

// IsLeaf reports whether n is a leaf.
func (n *Node[P, S]) IsLeaf() bool { return n.left == 0 }

// ID names the node in its tree; Tree.Node resolves it. A freed node's ID
// is handed out again, so an ID is as long-lived as the handle.
func (n *Node[P, S]) ID() int32 { return n.id }

// Parent returns the parent node (nil at the root).
func (n *Node[P, S]) Parent() *Node[P, S] { return n.t.Node(n.parent) }

// Left returns the left child (nil for leaves).
func (n *Node[P, S]) Left() *Node[P, S] { return n.t.Node(n.left) }

// Right returns the right child (nil for leaves).
func (n *Node[P, S]) Right() *Node[P, S] { return n.t.Node(n.right) }

// Depth returns the number of edges from the root.
func (n *Node[P, S]) Depth() int { return int(n.depth) }

// Height returns the subtree height in edges (0 for leaves). For an
// internal node this is also the contraction round at which the node's gap
// rakes (§4.2).
func (n *Node[P, S]) Height() int { return int(n.height) }

// LeafCount returns the number of leaves in the subtree: 0 once the node
// is freed.
func (n *Node[P, S]) LeafCount() int { return int(n.leaves) }

// Payload returns the client payload of a leaf.
func (n *Node[P, S]) Payload() P { return n.payload }

// Sum returns the aggregated subtree summary. It is only meaningful when
// the tree was built with an aggregator.
func (n *Node[P, S]) Sum() S { return n.sum }

// Next returns the next leaf in left-to-right order (nil at the tail).
func (n *Node[P, S]) Next() *Node[P, S] { return n.t.Node(n.next) }

// GapLeaf returns, for an internal node, the leaf immediately left of the
// node's gap (the rightmost leaf of its left subtree).
func (n *Node[P, S]) GapLeaf() *Node[P, S] { return n.t.Node(n.gapLeaf) }

// GapNode returns, for a leaf, the internal node owning the gap to the
// leaf's right (nil for the last leaf). The gap node of a leaf is exactly
// the lowest common ancestor of the leaf and its successor.
func (n *Node[P, S]) GapNode() *Node[P, S] { return n.t.Node(n.gapNode) }

// Index returns the leaf's position in the leaf order, in O(depth) time by
// summing left-subtree counts along the root path.
func (n *Node[P, S]) Index() int {
	t := n.t
	idx := 0
	for v := n; v.parent != 0; {
		p := t.at(v.parent)
		if p.right == v.id {
			idx += int(t.at(p.left).leaves)
		}
		v = p
	}
	return idx
}

// Root returns the root of the tree containing n.
func (n *Node[P, S]) Root() *Node[P, S] {
	v := n
	for v.parent != 0 {
		v = n.t.at(v.parent)
	}
	return v
}

// isAncestorOf reports whether n is a proper or improper ancestor of m.
func (n *Node[P, S]) isAncestorOf(m *Node[P, S]) bool {
	for v := m; ; v = n.t.at(v.parent) {
		if v == n {
			return true
		}
		if v.depth <= n.depth || v.parent == 0 {
			return false
		}
	}
}

// appendShortcutDepths appends the target depths of the shortcut list for
// a node at depth d: the paper's ⌊d·(1-(2/3)^i)⌋ sequence, realized as the
// integer recurrence remaining←⌊remaining·2/3⌋ starting from d (entry depth
// is d-remaining). Entry 0 is always depth 0 (the root); the list stops
// when the remaining distance reaches zero, so the deepest entry is a
// proper ancestor, and a root (d = 0) gets none. The recurrence keeps the
// geometric 2/3 decrease the range splitting analysis of Theorem 2.1 needs
// while avoiding large-power arithmetic.
func appendShortcutDepths(dst []int32, d int32) []int32 {
	for remaining := d; remaining > 0; remaining = remaining * 2 / 3 {
		dst = append(dst, d-remaining)
	}
	return dst
}

// at returns the node named id, which must not be none.
func (t *Tree[P, S]) at(id int32) *Node[P, S] { return t.nodes.At(id) }

// Node resolves a node ID of this tree: nil for 0.
func (t *Tree[P, S]) Node(id int32) *Node[P, S] { return t.nodes.Get(id) }

// newNode hands out a blank node of t, reusing a recycled one if any.
func (t *Tree[P, S]) newNode() *Node[P, S] {
	id, n := t.nodes.Alloc()
	n.t, n.id = t, id
	return n
}

// release frees a node the current call no longer needs: its links,
// counts and shortcut list go at once, so it reads as detached. The arena
// recycles it, clearing its payload, at the start of the next insertion
// or deletion; until then no call hands it out again, so the call's
// report and a deleted leaf's payload stay readable.
func (t *Tree[P, S]) release(n *Node[P, S]) {
	t.dropShortcuts(n)
	*n = Node[P, S]{t: t, id: n.id, payload: n.payload, sum: n.sum}
	t.nodes.Release(n.id)
}

// shortcuts returns n's shortcut list, a view into the slab that is valid
// until the next list is allocated (nil when n has none).
func (t *Tree[P, S]) shortcuts(n *Node[P, S]) []int32 {
	if n.sc == 0 {
		return nil
	}
	return t.slab[n.sc+1 : n.sc+1+t.slab[n.sc]]
}

// setShortcuts gives v a fresh shortcut list read off anc, the ancestor
// stack indexed by depth. A list lives at an offset of the slab that
// holds its length, followed by its entries; offset 0 is reserved for
// none, and released lists are reused by length.
func (t *Tree[P, S]) setShortcuts(v *Node[P, S], anc []int32) {
	t.scDepths = appendShortcutDepths(t.scDepths[:0], v.depth)
	l := len(t.scDepths)
	var off int32
	if l < len(t.slabFree) && len(t.slabFree[l]) > 0 {
		fl := t.slabFree[l]
		off = fl[len(fl)-1]
		t.slabFree[l] = fl[:len(fl)-1]
	} else {
		if len(t.slab) == 0 {
			t.slab = append(t.slab, 0)
		}
		off = int32(len(t.slab))
		t.slab = append(t.slab, int32(l))
		t.slab = append(t.slab, make([]int32, l)...)
	}
	for i, d := range t.scDepths {
		t.slab[off+1+int32(i)] = anc[d]
	}
	v.sc = off
}

// dropShortcuts releases n's shortcut list, if any, for reuse.
func (t *Tree[P, S]) dropShortcuts(n *Node[P, S]) {
	if n.sc == 0 {
		return
	}
	l := int(t.slab[n.sc])
	for len(t.slabFree) <= l {
		t.slabFree = append(t.slabFree, nil)
	}
	t.slabFree[l] = append(t.slabFree[l], n.sc)
	n.sc = 0
}
