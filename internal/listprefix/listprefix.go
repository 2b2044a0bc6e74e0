// Package listprefix implements the incremental list prefix structure of
// Reif & Tate, SPAA'94, §3: a dynamic list whose elements carry monoid
// values, supporting batch prefix queries, point and batch updates, and
// batch insertion/deletion — all with the paper's expected bounds.
//
// The structure is an RBSTS whose leaves are the list elements and whose
// internal nodes maintain the monoid sum of their sublist ("we store the
// sum of all the values in that sub-list at the internal node"). A batch of
// |U| prefix queries proceeds exactly as in Theorem 3.1:
//
//  1. identify/activate the parse tree PT(U) (Theorem 2.1),
//  2. extend it conceptually to P̂T(U) by treating each non-activated child
//     of an activated node as a single leaf carrying its subtree sum,
//  3. build the Euler tour of P̂T(U) as a linked list of arcs in one
//     parallel round, and
//  4. run a parallel prefix (pointer jumping) over the tour, which yields
//     every query's prefix sum in O(log |PT(U)|) = O(log(|U| log n)) rounds.
//
// The pointer-jumping prefix costs a log factor more work than the paper's
// optimal list-prefix subroutine; this affects work constants only, not the
// round counts the experiments validate.
package listprefix

import (
	"slices"

	"dyntc/internal/pram"
	"dyntc/internal/rbsts"
)

// Monoid describes an associative combine with identity over V. It does not
// need to be commutative: prefix queries respect list order.
type Monoid[V any] struct {
	Identity V
	Combine  func(V, V) V
}

// SumInt64 is the (ℤ, +) monoid.
func SumInt64() Monoid[int64] {
	return Monoid[int64]{Identity: 0, Combine: func(a, b int64) int64 { return a + b }}
}

// MinInt64 is the (ℤ∪{∞}, min) monoid; identity is a large sentinel.
func MinInt64() Monoid[int64] {
	return Monoid[int64]{Identity: 1 << 62, Combine: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}}
}

// Elem is a stable handle to a list element; it remains valid across every
// mutation until the element is deleted, and a deleted element's handle
// is invalid after the next insertion or deletion.
type Elem[V any] = rbsts.Node[V, V]

// List is the incremental list prefix structure.
type List[V any] struct {
	tree *rbsts.Tree[V, V]
	mon  Monoid[V]
}

// New builds a list over the given values (Lemma 2.1 construction).
func New[V any](seed uint64, mon Monoid[V], values []V) *List[V] {
	t := rbsts.New[V, V](seed,
		func(v V) V { return v },
		mon.Combine,
		values)
	return &List[V]{tree: t, mon: mon}
}

// Len returns the number of elements.
func (l *List[V]) Len() int { return l.tree.Len() }

// At returns the element at index i (O(log n) expected).
func (l *List[V]) At(i int) *Elem[V] { return l.tree.LeafAt(i) }

// Head returns the first element, or nil.
func (l *List[V]) Head() *Elem[V] { return l.tree.Head() }

// Tail returns the last element, or nil.
func (l *List[V]) Tail() *Elem[V] { return l.tree.Tail() }

// Value returns the element's value.
func (l *List[V]) Value(e *Elem[V]) V { return e.Payload() }

// Values returns all values in order.
func (l *List[V]) Values() []V {
	out := make([]V, 0, l.Len())
	for e := l.tree.Head(); e != nil; e = e.Next() {
		out = append(out, e.Payload())
	}
	return out
}

// Total returns the sum over the whole list (exactly maintained; O(1)).
func (l *List[V]) Total() V {
	if l.tree.Root() == nil {
		return l.mon.Identity
	}
	return l.tree.Root().Sum()
}

// PrefixAt returns the inclusive prefix sum at e by the sequential root
// path walk: the sum of every left sibling subtree plus e itself. O(log n)
// expected with one processor.
func (l *List[V]) PrefixAt(e *Elem[V]) V {
	acc := e.Sum()
	for v := e; v.Parent() != nil; v = v.Parent() {
		if v == v.Parent().Right() {
			acc = l.mon.Combine(v.Parent().Left().Sum(), acc)
		}
	}
	return acc
}

// Update sets the value at e and refreshes sums along the root path.
func (l *List[V]) Update(e *Elem[V], v V) { l.tree.UpdateLeaf(e, v) }

// BatchUpdate applies a set of point updates and repairs all sums over the
// parse tree in parallel (Theorem 3.1's update side).
func (l *List[V]) BatchUpdate(m *pram.Machine, elems []*Elem[V], values []V) {
	l.tree.BatchUpdate(m, elems, values)
}

// Insert inserts values immediately after element after (nil = front) and
// returns the new elements.
func (l *List[V]) Insert(m *pram.Machine, after *Elem[V], values []V) []*Elem[V] {
	return l.tree.InsertAfter(m, after, values)
}

// InsertAt inserts values so the first lands at index gap.
func (l *List[V]) InsertAt(m *pram.Machine, gap int, values []V) []*Elem[V] {
	rep := l.tree.BatchInsert(m, []rbsts.InsertOp[V]{{Gap: gap, Payloads: values}})
	return slices.Clone(rep.NewLeaves)
}

// Delete removes the given elements.
func (l *List[V]) Delete(m *pram.Machine, elems []*Elem[V]) {
	l.tree.BatchDelete(m, elems)
}

// Tree exposes the underlying RBSTS (used by the applications layer).
func (l *List[V]) Tree() *rbsts.Tree[V, V] { return l.tree }

// Validate checks structural invariants (tests only).
func (l *List[V]) Validate() error { return l.tree.Validate() }

// BatchPrefix returns the inclusive prefix sum at every element of elems,
// using the parallel procedure of Theorem 3.1 (activation, Euler tour of
// the extended parse tree, pointer-jumping prefix).
func (l *List[V]) BatchPrefix(m *pram.Machine, elems []*Elem[V]) []V {
	if m == nil {
		m = pram.Sequential()
	}
	out := make([]V, len(elems))
	if len(elems) == 0 || l.tree.Root() == nil {
		return out
	}
	act := l.tree.Activate(m, elems)
	defer act.Release(m)

	// Assemble P̂T(U): activated nodes plus boundary children. Each PAT
	// node gets an index; arcs 2i (enter) and 2i+1 (leave).
	idx := make(map[*Elem[V]]int, 2*len(act.Nodes))
	pat := make([]*Elem[V], 0, 2*len(act.Nodes))
	addNode := func(n *Elem[V]) {
		if _, ok := idx[n]; !ok {
			idx[n] = len(pat)
			pat = append(pat, n)
		}
	}
	for _, n := range act.Nodes {
		addNode(n)
	}
	// Boundary children: non-activated children of activated internals.
	// (One sequential pass; charged as one parallel round.)
	for _, n := range act.Nodes {
		if !n.IsLeaf() {
			if !n.Left().IsActive() {
				addNode(n.Left())
			}
			if !n.Right().IsActive() {
				addNode(n.Right())
			}
		}
	}
	m.Charge(len(pat))

	nArcs := 2 * len(pat)
	succ := make([]int, nArcs)
	value := make([]V, nArcs)
	root := l.tree.Root()
	// One parallel round builds the tour's linked structure: classic O(1)
	// per-node Euler tour successor rules.
	m.Step(len(pat), func(i int) {
		n := pat[i]
		down, up := 2*i, 2*i+1
		isPATLeaf := n.IsLeaf() || !n.IsActive()
		if isPATLeaf {
			value[down] = n.Sum()
			succ[down] = up
		} else {
			value[down] = l.mon.Identity
			succ[down] = 2 * idx[n.Left()]
		}
		value[up] = l.mon.Identity
		if n == root {
			succ[up] = -1
		} else {
			p := n.Parent()
			if n == p.Left() {
				succ[up] = 2 * idx[p.Right()]
			} else {
				succ[up] = 2*idx[p] + 1
			}
		}
	})

	prefix := l.tourPrefix(m, succ, value, 2*idx[root])

	m.Step(len(elems), func(i int) {
		out[i] = prefix[2*idx[elems[i]]]
	})
	return out
}

// tourPrefix computes inclusive prefix sums over the linked list given by
// succ (entry head, -1 terminates) using pointer jumping over predecessor
// links: O(log n) rounds, O(n log n) work.
func (l *List[V]) tourPrefix(m *pram.Machine, succ []int, value []V, head int) []V {
	n := len(succ)
	pred := make([]int, n)
	m.Step(n, func(i int) { pred[i] = -2 })
	m.Step(n, func(i int) {
		if s := succ[i]; s >= 0 {
			pred[s] = i
		}
	})
	m.Step(1, func(int) { pred[head] = -1 })

	val := append([]V(nil), value...)
	jump := pred
	newVal := make([]V, n)
	newJump := make([]int, n)
	for {
		var active int64
		m.Step(n, func(i int) {
			j := jump[i]
			if j >= 0 {
				pram.AddInt64(&active, 1)
				newVal[i] = l.mon.Combine(val[j], val[i])
				newJump[i] = jump[j]
			} else {
				newVal[i] = val[i]
				newJump[i] = j
			}
		})
		if active == 0 {
			break
		}
		val, newVal = newVal, val
		jump, newJump = newJump, jump
	}
	return val
}

// RangeSum returns the sum of values between elements a and b inclusive
// (a must not come after b), via two sequential root-path walks.
func (l *List[V]) RangeSum(a, b *Elem[V]) V {
	ia, ib := a.Index(), b.Index()
	if ia > ib {
		panic("listprefix: RangeSum with reversed range")
	}
	return l.rangeSumIdx(l.tree.Root(), ia, ib)
}

func (l *List[V]) rangeSumIdx(v *Elem[V], lo, hi int) V {
	// Whole subtree covered.
	if lo <= 0 && hi >= v.LeafCount()-1 {
		return v.Sum()
	}
	left := v.Left().LeafCount()
	if hi < left {
		return l.rangeSumIdx(v.Left(), lo, hi)
	}
	if lo >= left {
		return l.rangeSumIdx(v.Right(), lo-left, hi-left)
	}
	return l.mon.Combine(
		l.rangeSumIdx(v.Left(), lo, left-1),
		l.rangeSumIdx(v.Right(), 0, hi-left),
	)
}

// SearchPrefix returns the first element whose inclusive prefix sum
// satisfies pred, assuming pred is monotone along the list (false… then
// true…), or nil if none does. O(log n) expected.
func (l *List[V]) SearchPrefix(pred func(V) bool) *Elem[V] {
	v := l.tree.Root()
	if v == nil {
		return nil
	}
	if !pred(v.Sum()) {
		return nil
	}
	acc := l.mon.Identity
	for !v.IsLeaf() {
		withLeft := l.mon.Combine(acc, v.Left().Sum())
		if pred(withLeft) {
			v = v.Left()
		} else {
			acc = withLeft
			v = v.Right()
		}
	}
	return v
}
