// Package seqdyn provides the sequential baselines the paper's batch-
// parallel algorithms are measured against (§1.2: "with the known
// sequential algorithms, a sequence of |U| queries or update requests takes
// O(|U| log n) time"):
//
//   - PathEval: dynamic expression evaluation that caches every node's
//     value and recomputes the root path on each update — O(depth) per
//     update, O(1) per query. On balanced trees this is the classical
//     O(log n) sequential dynamic algorithm (Cohen–Tamassia style); on
//     unbounded-depth trees it degrades to Θ(n), which is exactly the
//     degradation the paper's structure avoids.
//   - RebuildEval: recomputes everything from scratch on each update —
//     the Θ(n) floor.
package seqdyn

import (
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// PathEval caches node values and repairs root paths on update.
type PathEval struct {
	t    *tree.Tree
	vals []int64
}

// NewPathEval builds the cache in O(n).
func NewPathEval(t *tree.Tree) *PathEval {
	p := &PathEval{t: t}
	p.Rebuild()
	return p
}

// Rebuild recomputes every cached value (called after structural changes).
func (p *PathEval) Rebuild() {
	p.vals = make([]int64, len(p.t.Nodes))
	// Iterative post-order.
	type frame struct {
		n    *tree.Node
		seen bool
	}
	stack := []frame{{p.t.Root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.IsLeaf() {
			p.vals[f.n.ID] = f.n.Value
			continue
		}
		if !f.seen {
			stack = append(stack, frame{f.n, true}, frame{f.n.Right, false}, frame{f.n.Left, false})
			continue
		}
		p.vals[f.n.ID] = f.n.Op.Eval(p.t.Ring, p.vals[f.n.Left.ID], p.vals[f.n.Right.ID])
	}
}

// SetValue updates a leaf and repairs the root path. It returns the number
// of nodes recomputed (the Θ(depth) cost driver).
func (p *PathEval) SetValue(leaf *tree.Node, v int64) int {
	p.t.SetValue(leaf, v)
	p.vals[leaf.ID] = leaf.Value
	steps := 0
	for n := leaf.Parent; n != nil; n = n.Parent {
		p.vals[n.ID] = n.Op.Eval(p.t.Ring, p.vals[n.Left.ID], p.vals[n.Right.ID])
		steps++
	}
	return steps
}

// Value returns the cached value at n.
func (p *PathEval) Value(n *tree.Node) int64 { return p.vals[n.ID] }

// Root returns the cached root value.
func (p *PathEval) Root() int64 { return p.vals[p.t.Root.ID] }

// AddChildren grows a leaf and repairs the root path.
func (p *PathEval) AddChildren(leaf *tree.Node, op semiring.Op, lv, rv int64) (*tree.Node, *tree.Node) {
	l, r := p.t.AddChildren(leaf, op, lv, rv)
	for len(p.vals) < len(p.t.Nodes) {
		p.vals = append(p.vals, 0)
	}
	p.vals[l.ID] = l.Value
	p.vals[r.ID] = r.Value
	p.vals[leaf.ID] = leaf.Op.Eval(p.t.Ring, l.Value, r.Value)
	for n := leaf.Parent; n != nil; n = n.Parent {
		p.vals[n.ID] = n.Op.Eval(p.t.Ring, p.vals[n.Left.ID], p.vals[n.Right.ID])
	}
	return l, r
}

// RebuildEval recomputes the whole expression on every request.
type RebuildEval struct{ t *tree.Tree }

// NewRebuildEval wraps a tree.
func NewRebuildEval(t *tree.Tree) *RebuildEval { return &RebuildEval{t: t} }

// SetValue updates a leaf; the cost is paid at query time.
func (p *RebuildEval) SetValue(leaf *tree.Node, v int64) { p.t.SetValue(leaf, v) }

// Root evaluates from scratch: Θ(n).
func (p *RebuildEval) Root() int64 { return p.t.Eval() }

// Value evaluates the subtree from scratch.
func (p *RebuildEval) Value(n *tree.Node) int64 { return p.t.EvalAt(n) }

// NaiveActivationWalk counts the parent-pointer steps the no-shortcut
// activation of §2 would take for the given update set: the Θ(|U|·depth)
// walk the shortcuts avoid.
func NaiveActivationWalk(leaves []*tree.Node) int {
	seen := map[*tree.Node]bool{}
	steps := 0
	for _, l := range leaves {
		for n := l; n != nil && !seen[n]; n = n.Parent {
			seen[n] = true
			steps++
		}
	}
	return steps
}
