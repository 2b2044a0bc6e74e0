// Package tree provides the dynamic binary expression trees T that
// parallel tree contraction evaluates (Reif & Tate, SPAA'94, §4). Trees are
// full binary (every internal node has exactly two children), of bounded
// size but unbounded depth; leaves carry ring values and internal nodes
// carry symmetric bilinear operations over a commutative (semi)ring.
//
// The package also provides the paper's two structural mutations — grow a
// leaf into an operation node with two new leaf children, and collapse an
// operation node whose children are both leaves back into a leaf — plus
// random tree generators for every shape the experiments sweep (balanced,
// left/right combs, uniformly random) and a direct iterative evaluator used
// as the correctness oracle.
package tree

import (
	"fmt"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
)

// Node is a node of the expression tree. Exactly one of (Op) / (Value) is
// meaningful: internal nodes have an operation, leaves have a value.
type Node struct {
	Parent, Left, Right *Node

	// Op is the node's symmetric bilinear operation (internal nodes).
	Op semiring.Op
	// Value is the leaf's ring value.
	Value int64

	// ID is a dense index into Tree.Nodes, stable for the node's lifetime.
	ID int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Sibling returns the node's sibling, or nil at the root.
func (n *Node) Sibling() *Node {
	if n.Parent == nil {
		return nil
	}
	if n.Parent.Left == n {
		return n.Parent.Right
	}
	return n.Parent.Left
}

// Tree is a dynamic full binary expression tree over a ring.
type Tree struct {
	Ring semiring.Ring
	Root *Node

	// Nodes indexes every node ever created by ID; deleted nodes keep
	// their slot (nil-ed) so IDs stay dense and stable.
	Nodes []*Node

	liveCount int
}

// New creates a tree consisting of a single leaf.
func New(r semiring.Ring, rootValue int64) *Tree {
	t := &Tree{Ring: r}
	t.Root = t.newNode()
	t.Root.Value = r.Normalize(rootValue)
	return t
}

func (t *Tree) newNode() *Node {
	n := &Node{ID: len(t.Nodes)}
	t.Nodes = append(t.Nodes, n)
	t.liveCount++
	return n
}

// Len returns the number of live nodes.
func (t *Tree) Len() int { return t.liveCount }

// LeafCount returns the number of leaves ((Len+1)/2 for a full binary tree).
func (t *Tree) LeafCount() int { return (t.liveCount + 1) / 2 }

// AddChildren grows leaf into an internal node with operation op and two
// new leaf children holding the given values (the paper's "add two new
// children below a current leaf"). The values and op's coefficients are
// reduced into the ring. It returns the new left and right leaves.
func (t *Tree) AddChildren(leaf *Node, op semiring.Op, leftVal, rightVal int64) (l, r *Node) {
	if !leaf.IsLeaf() {
		panic("tree: AddChildren on an internal node")
	}
	l, r = t.newNode(), t.newNode()
	l.Value = t.Ring.Normalize(leftVal)
	r.Value = t.Ring.Normalize(rightVal)
	l.Parent, r.Parent = leaf, leaf
	leaf.Left, leaf.Right = l, r
	leaf.Op = op.Normalize(t.Ring)
	leaf.Value = 0
	return l, r
}

// DeleteChildren collapses an internal node whose children are both leaves
// back into a leaf with the given value (the paper's "delete two leaf
// children of a node").
func (t *Tree) DeleteChildren(n *Node, newValue int64) {
	if n.IsLeaf() || !n.Left.IsLeaf() || !n.Right.IsLeaf() {
		panic("tree: DeleteChildren requires two leaf children")
	}
	t.Nodes[n.Left.ID] = nil
	t.Nodes[n.Right.ID] = nil
	t.liveCount -= 2
	n.Left.Parent, n.Right.Parent = nil, nil
	n.Left, n.Right = nil, nil
	n.Value = t.Ring.Normalize(newValue)
	n.Op = semiring.Op{}
}

// SetValue updates a leaf's value.
func (t *Tree) SetValue(leaf *Node, v int64) {
	if !leaf.IsLeaf() {
		panic("tree: SetValue on an internal node")
	}
	leaf.Value = t.Ring.Normalize(v)
}

// SetOp updates an internal node's operation, its coefficients reduced
// into the ring.
func (t *Tree) SetOp(n *Node, op semiring.Op) {
	if n.IsLeaf() {
		panic("tree: SetOp on a leaf")
	}
	n.Op = op.Normalize(t.Ring)
}

// RestoreNode describes one live node for Restore. Links are node IDs;
// -1 means none. Exactly one of Op / Value is meaningful, as in Node.
type RestoreNode struct {
	ID, Parent, Left, Right int
	Op                      semiring.Op
	Value                   int64
}

// Restore reconstructs a tree from a serialized description: slots is the
// historical length of the Nodes index (deleted slots included — restoring
// it exactly keeps future ID assignment identical to the source tree), and
// nodes lists every live node. The result is validated, and its values and
// operation coefficients are reduced into r as every mutation reduces
// them: a description read from outside the program need not hold reduced
// ones.
func Restore(r semiring.Ring, slots int, nodes []RestoreNode) (*Tree, error) {
	if slots < len(nodes) || len(nodes) == 0 {
		return nil, fmt.Errorf("tree: restore with %d nodes in %d slots", len(nodes), slots)
	}
	t := &Tree{Ring: r, Nodes: make([]*Node, slots)}
	for _, rn := range nodes {
		if rn.ID < 0 || rn.ID >= slots {
			return nil, fmt.Errorf("tree: restore node ID %d out of range [0, %d)", rn.ID, slots)
		}
		if t.Nodes[rn.ID] != nil {
			return nil, fmt.Errorf("tree: restore duplicate node ID %d", rn.ID)
		}
		t.Nodes[rn.ID] = &Node{ID: rn.ID}
	}
	at := func(id int) (*Node, error) {
		if id == -1 {
			return nil, nil
		}
		if id < 0 || id >= slots || t.Nodes[id] == nil {
			return nil, fmt.Errorf("tree: restore link to missing node %d", id)
		}
		return t.Nodes[id], nil
	}
	for _, rn := range nodes {
		n := t.Nodes[rn.ID]
		var err error
		if n.Parent, err = at(rn.Parent); err != nil {
			return nil, err
		}
		if n.Left, err = at(rn.Left); err != nil {
			return nil, err
		}
		if n.Right, err = at(rn.Right); err != nil {
			return nil, err
		}
		if (n.Left == nil) != (n.Right == nil) {
			return nil, fmt.Errorf("tree: restore half-internal node %d", rn.ID)
		}
		if n.IsLeaf() {
			n.Value = r.Normalize(rn.Value)
		} else {
			n.Op = rn.Op.Normalize(r)
		}
		if n.Parent == nil {
			if t.Root != nil {
				return nil, fmt.Errorf("tree: restore found two roots (%d, %d)", t.Root.ID, rn.ID)
			}
			t.Root = n
		}
	}
	t.liveCount = len(nodes)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return t, nil
}

// Leaves returns the leaves in left-to-right order (iterative DFS).
func (t *Tree) Leaves() []*Node {
	var out []*Node
	if t.Root == nil {
		return out
	}
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsLeaf() {
			out = append(out, n)
			continue
		}
		stack = append(stack, n.Right, n.Left)
	}
	return out
}

// Eval computes the expression value bottom-up with an explicit stack (no
// recursion, so comb trees of any depth are safe). This is the oracle every
// contraction result is tested against.
func (t *Tree) Eval() int64 {
	return t.EvalAt(t.Root)
}

// EvalAt computes the value of the subexpression rooted at n.
func (t *Tree) EvalAt(n *Node) int64 {
	type frame struct {
		n    *Node
		seen bool
	}
	vals := make([]int64, len(t.Nodes))
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{n, false})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.IsLeaf() {
			vals[f.n.ID] = f.n.Value
			continue
		}
		if !f.seen {
			stack = append(stack, frame{f.n, true}, frame{f.n.Right, false}, frame{f.n.Left, false})
			continue
		}
		vals[f.n.ID] = f.n.Op.Eval(t.Ring, vals[f.n.Left.ID], vals[f.n.Right.ID])
	}
	return vals[n.ID]
}

// Validate checks full-binary structure and parent links.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("tree: nil root")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("tree: root has a parent")
	}
	count := 0
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		if t.Nodes[n.ID] != n {
			return fmt.Errorf("tree: node ID %d not registered", n.ID)
		}
		if n.IsLeaf() {
			if n.Right != nil {
				return fmt.Errorf("tree: half-internal node %d", n.ID)
			}
			continue
		}
		if n.Right == nil {
			return fmt.Errorf("tree: half-internal node %d", n.ID)
		}
		// Without this check a chain of nodes whose two links name the same
		// child would be walked 2^depth times before the count fails.
		if n.Left == n.Right {
			return fmt.Errorf("tree: node %d has one child twice", n.ID)
		}
		if n.Left.Parent != n || n.Right.Parent != n {
			return fmt.Errorf("tree: bad parent links under node %d", n.ID)
		}
		stack = append(stack, n.Left, n.Right)
	}
	if count != t.liveCount {
		return fmt.Errorf("tree: liveCount=%d but %d reachable", t.liveCount, count)
	}
	return nil
}

// Shape selects a random tree topology.
type Shape int

// Tree shapes for the generators.
const (
	// ShapeRandom grows the tree by expanding uniformly random leaves.
	ShapeRandom Shape = iota
	// ShapeBalanced is a perfectly balanced topology.
	ShapeBalanced
	// ShapeLeftComb chains every expansion down the leftmost leaf
	// (depth = n-1: the unbounded-depth stress shape).
	ShapeLeftComb
	// ShapeRightComb chains down the rightmost leaf.
	ShapeRightComb
)

// Generate builds a random full binary expression tree with the given
// number of leaves, topology shape, random {+,×} operations and values
// drawn from src. Values are normalized into the ring.
func Generate(r semiring.Ring, src *prng.Source, leaves int, shape Shape) *Tree {
	if leaves < 1 {
		panic("tree: Generate needs at least one leaf")
	}
	t := New(r, src.Int63())
	frontier := []*Node{t.Root}
	for n := 1; n < leaves; n++ {
		var leaf *Node
		switch shape {
		case ShapeBalanced:
			// Expanding the frontier in FIFO order yields a balanced tree.
			leaf = frontier[0]
			frontier = frontier[1:]
		case ShapeLeftComb:
			leaf = frontier[0]
			frontier = frontier[:0]
		case ShapeRightComb:
			leaf = frontier[len(frontier)-1]
			frontier = frontier[:0]
		default:
			i := src.Intn(len(frontier))
			leaf = frontier[i]
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		}
		op := semiring.OpAdd(r)
		if src.Intn(2) == 1 {
			op = semiring.OpMul(r)
		}
		l, rg := t.AddChildren(leaf, op, src.Int63(), src.Int63())
		switch shape {
		case ShapeLeftComb:
			frontier = append(frontier, l)
		case ShapeRightComb:
			frontier = append(frontier, rg)
		default:
			frontier = append(frontier, l, rg)
		}
	}
	return t
}
