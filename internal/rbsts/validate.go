package rbsts

import "fmt"

// Validate checks every structural invariant of the tree and returns the
// first violation found, or nil. Besides the shape it checks the arena:
// no node reachable from the root is freed, no link of a reachable node
// (tree, list, gap or shortcut) names a freed node, and every node handed
// out is either in the tree or freed. It is O(n · shortcut length) and
// intended for tests and failure injection, not production paths.
func (t *Tree[P, S]) Validate() error {
	free, pending := t.nodes.Unused()
	handed := int(t.nodes.End()) - 1
	freed := make(map[int32]bool, len(free)+len(pending))
	for _, ids := range [2][]int32{free, pending} {
		for _, id := range ids {
			if id <= 0 || int(id) > handed || freed[id] {
				return fmt.Errorf("rbsts: free list holds bad or repeated node %d", id)
			}
			freed[id] = true
			if t.at(id).leaves != 0 {
				return fmt.Errorf("rbsts: freed node %d still has leaves", id)
			}
		}
	}
	if t.root == 0 {
		if t.count != 0 || t.head != 0 || t.tail != 0 {
			return fmt.Errorf("rbsts: empty root but count=%d head=%d tail=%d", t.count, t.head, t.tail)
		}
		if len(freed) != handed {
			return fmt.Errorf("rbsts: empty tree holds %d nodes, %d freed", handed, len(freed))
		}
		return nil
	}
	v := &validator[P, S]{t: t, freed: freed}
	for _, l := range [3]int32{t.root, t.head, t.tail} {
		if err := v.link(l); err != nil {
			return fmt.Errorf("rbsts: tree ends: %w", err)
		}
	}
	root := t.at(t.root)
	if root.parent != 0 {
		return fmt.Errorf("rbsts: root has a parent")
	}
	if err := v.node(root, 0); err != nil {
		return err
	}
	leaves := v.leaves
	if len(leaves) != t.count {
		return fmt.Errorf("rbsts: count=%d but found %d leaves", t.count, len(leaves))
	}
	if v.live+len(freed) != handed {
		return fmt.Errorf("rbsts: %d nodes live and %d freed, but %d handed out", v.live, len(freed), handed)
	}
	// Leaf list agrees with in-order traversal.
	if t.at(t.head) != leaves[0] || t.at(t.tail) != leaves[len(leaves)-1] {
		return fmt.Errorf("rbsts: head/tail do not match extreme leaves")
	}
	for i, l := range leaves {
		var wantPrev, wantNext int32
		if i > 0 {
			wantPrev = leaves[i-1].id
		}
		if i+1 < len(leaves) {
			wantNext = leaves[i+1].id
		}
		if l.prev != wantPrev || l.next != wantNext {
			return fmt.Errorf("rbsts: leaf %d has bad list links", i)
		}
		if l.Index() != i {
			return fmt.Errorf("rbsts: leaf %d reports Index %d", i, l.Index())
		}
	}
	// Gap correspondence: leaf i's gap node must be the LCA of leaves i
	// and i+1, and the mapping must be mutual.
	for i := 0; i+1 < len(leaves); i++ {
		if leaves[i].gapNode == 0 {
			return fmt.Errorf("rbsts: interior leaf %d has no gapNode", i)
		}
		g := t.at(leaves[i].gapNode)
		if g.gapLeaf != leaves[i].id {
			return fmt.Errorf("rbsts: gap node of leaf %d does not point back", i)
		}
		if g.IsLeaf() || !g.isAncestorOf(leaves[i]) || !g.isAncestorOf(leaves[i+1]) {
			return fmt.Errorf("rbsts: gap node of leaf %d is not a common ancestor", i)
		}
		// Must be the LOWEST common ancestor: leaf i in left subtree,
		// leaf i+1 in right subtree.
		if !t.at(g.left).isAncestorOf(leaves[i]) || !t.at(g.right).isAncestorOf(leaves[i+1]) {
			return fmt.Errorf("rbsts: gap node of leaf %d is not the LCA", i)
		}
	}
	if t.at(t.tail).gapNode != 0 {
		return fmt.Errorf("rbsts: tail leaf has a gapNode")
	}
	return nil
}

// validator carries one Validate walk's state.
type validator[P, S any] struct {
	t      *Tree[P, S]
	freed  map[int32]bool
	leaves []*Node[P, S]
	live   int
}

// link reports a link naming a node outside the arena or a freed one.
func (v *validator[P, S]) link(id int32) error {
	if id == 0 {
		return nil
	}
	if id < 0 || id >= v.t.nodes.End() {
		return fmt.Errorf("link %d outside the arena's %d nodes", id, v.t.nodes.End())
	}
	if v.freed[id] {
		return fmt.Errorf("link to freed node %d", id)
	}
	return nil
}

func (v *validator[P, S]) node(n *Node[P, S], depth int32) error {
	t := v.t
	if v.freed[n.id] || n.t != t || t.at(n.id) != n {
		return fmt.Errorf("rbsts: node %d reachable from the root is freed or misnamed", n.id)
	}
	v.live++
	for _, l := range [7]int32{n.parent, n.left, n.right, n.next, n.prev, n.gapLeaf, n.gapNode} {
		if err := v.link(l); err != nil {
			return fmt.Errorf("rbsts: node %d: %w", n.id, err)
		}
	}
	for _, l := range t.shortcuts(n) {
		if err := v.link(l); err != nil {
			return fmt.Errorf("rbsts: node %d shortcut: %w", n.id, err)
		}
	}
	if n.depth != depth {
		return fmt.Errorf("rbsts: node depth=%d want %d", n.depth, depth)
	}
	if n.active != 0 {
		return fmt.Errorf("rbsts: node at depth %d has a leaked ACTIVE flag", depth)
	}
	if err := t.validateShortcuts(n); err != nil {
		return err
	}
	if n.IsLeaf() {
		if n.right != 0 || n.leaves != 1 || n.height != 0 {
			return fmt.Errorf("rbsts: malformed leaf at depth %d", depth)
		}
		v.leaves = append(v.leaves, n)
		return nil
	}
	if n.right == 0 {
		return fmt.Errorf("rbsts: internal node with one child at depth %d", depth)
	}
	l, r := t.at(n.left), t.at(n.right)
	if l.parent != n.id || r.parent != n.id {
		return fmt.Errorf("rbsts: child parent links broken at depth %d", depth)
	}
	if err := v.node(l, depth+1); err != nil {
		return err
	}
	if err := v.node(r, depth+1); err != nil {
		return err
	}
	if n.leaves != l.leaves+r.leaves {
		return fmt.Errorf("rbsts: leaf count wrong at depth %d", depth)
	}
	if n.height != 1+max(l.height, r.height) {
		return fmt.Errorf("rbsts: height wrong at depth %d", depth)
	}
	return nil
}

// validateShortcuts checks presence and targets of the shortcut list.
func (t *Tree[P, S]) validateShortcuts(v *Node[P, S]) error {
	if v.height >= t.shortcutMinHeight && v.depth > 0 {
		depths := appendShortcutDepths(nil, v.depth)
		sc := t.shortcuts(v)
		if len(sc) != len(depths) {
			return fmt.Errorf("rbsts: node depth=%d height=%d has %d shortcuts, want %d",
				v.depth, v.height, len(sc), len(depths))
		}
		for i, d := range depths {
			if sc[i] == 0 {
				return fmt.Errorf("rbsts: node depth=%d shortcut %d is none", v.depth, i)
			}
			if s := t.at(sc[i]); s.depth != d || !s.isAncestorOf(v) {
				return fmt.Errorf("rbsts: node depth=%d shortcut %d invalid", v.depth, i)
			}
		}
	}
	return nil
}

// SumOracle recomputes the aggregation of the whole tree from scratch
// (tests compare it against the maintained root sum).
func (t *Tree[P, S]) SumOracle() S {
	var zero S
	if t.root == 0 || t.mergeFn == nil {
		return zero
	}
	var rec func(v *Node[P, S]) S
	rec = func(v *Node[P, S]) S {
		if v.IsLeaf() {
			return t.leafFn(v.payload)
		}
		return t.mergeFn(rec(t.at(v.left)), rec(t.at(v.right)))
	}
	return rec(t.at(t.root))
}
