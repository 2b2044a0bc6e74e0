// Package dyntc is a Go implementation of dynamic parallel tree contraction
// (Reif & Tate, "Dynamic Parallel Tree Contraction", SPAA 1994).
//
// It maintains a dynamic binary expression tree T of bounded size but
// unbounded depth over a commutative (semi)ring, and processes batches of
// requests — add or delete leaves, modify labels, recompute values at
// specified nodes — in O(log(|U|·log n)) expected parallel time on a
// metered CRCW PRAM simulation, using the paper's random binary splitting
// tree with shortcuts (RBSTS), processor activation, and rake-tree label
// healing. Sequentially, a single update or query costs O(log n) expected.
//
// # Quick start
//
//	ring := dyntc.ModRing(1_000_000_007)
//	e := dyntc.NewExpr(ring, 1, dyntc.WithSeed(42))
//	l, r := e.Grow(e.Tree().Root, dyntc.OpAdd(ring), 3, 4)
//	fmt.Println(e.Root())      // 7
//	e.SetLeaf(l, 10)
//	fmt.Println(e.Root())      // 14
//	_ = r
//
// The Expr type additionally maintains the §5 applications on request:
// preorder numbers, ancestor counts, subtree sizes, the Eulerian tour and
// least common ancestors (enable with WithTour). Package-level re-exports
// give access to the dynamic list-prefix structure of §3 (NewList) and the
// canonical-form hasher of §5(e) (NewHasher).
//
// # Concurrency
//
// An Expr is single-writer. For concurrent use, Expr.Serve wraps it in an
// Engine: a request-coalescing front end that accepts traffic from any
// number of goroutines and amortizes it into the paper's §1.4 batch
// requests (see internal/engine). NewForest serves many independent
// expression trees, one engine each, and cmd/dyntcd serves a forest over
// HTTP/JSON.
package dyntc

import (
	"dyntc/internal/core"
	"dyntc/internal/euler"
	"dyntc/internal/listprefix"
	"dyntc/internal/pram"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// Re-exported algebra types. A Ring is a commutative semiring over int64;
// an Op is a symmetric bilinear node operation a·x·y + b·(x+y) + c.
type (
	// Ring is the label algebra (see internal/semiring.Ring).
	Ring = semiring.Ring
	// Op is a symmetric node operation.
	Op = semiring.Op
	// Node is a node of the expression tree. Node handles are stable for
	// the node's lifetime.
	Node = tree.Node
	// Tree is the underlying expression tree.
	Tree = tree.Tree
	// Metrics reports PRAM cost (rounds, work, processors).
	Metrics = pram.Metrics
	// HealStats reports the cost of the latest dynamic operation.
	HealStats = core.HealStats
)

// ModRing returns the ring of integers modulo p (2 ≤ p < 2³¹).
func ModRing(p int64) Ring { return semiring.NewMod(p) }

// MinPlus returns the (min, +) tropical semiring.
func MinPlus() Ring { return semiring.MinPlus{} }

// MaxPlus returns the (max, +) tropical semiring.
func MaxPlus() Ring { return semiring.MaxPlus{} }

// BoolRing returns the (OR, AND) boolean semiring.
func BoolRing() Ring { return semiring.Bool{} }

// MaxMin returns the bottleneck (max, min) semiring, used for widest-path
// style aggregates.
func MaxMin() Ring { return semiring.MaxMin{} }

// OpAdd returns the addition operation of r.
func OpAdd(r Ring) Op { return semiring.OpAdd(r) }

// OpMul returns the multiplication operation of r.
func OpMul(r Ring) Op { return semiring.OpMul(r) }

// Expr is a dynamically maintained expression tree: the public face of the
// paper's dynamic parallel tree contraction, optionally augmented with the
// Eulerian-tour applications of §5.
type Expr struct {
	t    *tree.Tree
	con  *core.Contraction
	tour *euler.Tour
	mach *pram.Machine
	seed uint64

	// epoch is the leadership term this tree's waves are stamped with:
	// 1 for a fresh tree, the snapshot's epoch for a restored one,
	// bumped by promotion (see AdoptEpoch in replicate.go). Touched only
	// by the owner / engine executor, like seed.
	epoch uint64

	// frozen is set while an Engine.Query barrier runs on a wave-tapped
	// (replicated) engine: mutations there would be invisible to the wave
	// change-log and silently diverge every follower, so they are refused
	// and recorded in frozenViolated (Engine.Query surfaces the error).
	// Only the engine executor goroutine touches these.
	frozen         bool
	frozenViolated bool
}

// mutable refuses a mutation attempted inside a logged (wave-tapped)
// barrier, recording the violation for Engine.Query to report.
func (e *Expr) mutable() bool {
	if e.frozen {
		e.frozenViolated = true
		return false
	}
	return true
}

// Option configures NewExpr.
type Option func(*options)

type options struct {
	seed     uint64
	withTour bool
}

// WithSeed fixes the seed of all randomized structure (default 1).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithTour additionally maintains the Eulerian tour and the derived tree
// properties (Preorder, Ancestors, SubtreeSize, LCA, EulerTour).
func WithTour() Option { return func(o *options) { o.withTour = true } }

// NewExpr creates an expression consisting of a single leaf with the given
// value.
func NewExpr(r Ring, rootValue int64, opts ...Option) *Expr {
	o := options{seed: 1}
	for _, f := range opts {
		f(&o)
	}
	m := pram.Sequential()
	t := tree.New(r, rootValue)
	e := &Expr{
		t:     t,
		con:   core.New(t, o.seed, m),
		mach:  m,
		seed:  o.seed,
		epoch: 1,
	}
	if o.withTour {
		e.tour = euler.New(t, o.seed^0x9E3779B97F4A7C15)
	}
	return e
}

// Tree exposes the underlying expression tree (read-only use; mutate only
// through Expr methods so the contraction stays consistent).
func (e *Expr) Tree() *Tree { return e.t }

// Root returns the value of the whole expression (exactly maintained).
func (e *Expr) Root() int64 { return e.con.RootValue() }

// Value returns the value of the subexpression rooted at n.
func (e *Expr) Value(n *Node) int64 { return e.con.Value(n) }

// Values answers a batch of value queries sharing one expansion.
func (e *Expr) Values(ns []*Node) []int64 { return e.con.ValuesBatch(ns) }

// Grow replaces leaf by an operation node with two fresh leaf children
// holding the given values, returning the new leaves.
func (e *Expr) Grow(leaf *Node, op Op, leftVal, rightVal int64) (*Node, *Node) {
	pairs := e.GrowBatch([]GrowOp{{Leaf: leaf, Op: op, LeftVal: leftVal, RightVal: rightVal}})
	return pairs[0][0], pairs[0][1]
}

// GrowOp describes one leaf expansion for GrowBatch.
type GrowOp = core.AddOp

// GrowBatch applies a set of leaf expansions as one parallel batch.
// Inside a Query barrier on a replicated engine it refuses (returning nil
// node pairs) and the surrounding Query reports ErrLoggedBarrier.
func (e *Expr) GrowBatch(ops []GrowOp) [][2]*Node {
	if !e.mutable() {
		return make([][2]*Node, len(ops))
	}
	pairs := e.con.AddLeaves(ops)
	if e.tour != nil {
		for i, op := range ops {
			e.tour.AddChildren(e.mach, op.Leaf, pairs[i][0], pairs[i][1])
		}
	}
	return pairs
}

// Collapse deletes the two leaf children of n, turning n back into a leaf
// with the given value.
func (e *Expr) Collapse(n *Node, newValue int64) {
	e.CollapseBatch([]CollapseOp{{Node: n, NewValue: newValue}})
}

// CollapseOp describes one leaf-pair deletion for CollapseBatch.
type CollapseOp = core.RemoveOp

// CollapseBatch applies a set of leaf-pair deletions as one parallel batch.
func (e *Expr) CollapseBatch(ops []CollapseOp) {
	if !e.mutable() {
		return
	}
	if e.tour != nil {
		for _, op := range ops {
			e.tour.DeleteChildren(e.mach, op.Node.Left, op.Node.Right)
		}
	}
	e.con.RemoveLeaves(ops)
}

// SetLeaf updates one leaf value (O(log n) expected sequential heal).
func (e *Expr) SetLeaf(leaf *Node, v int64) {
	if e.mutable() {
		e.con.SetValue(leaf, v)
	}
}

// SetLeaves updates a batch of leaf values in one parallel heal.
func (e *Expr) SetLeaves(leaves []*Node, vs []int64) {
	if e.mutable() {
		e.con.SetValues(leaves, vs)
	}
}

// SetOp updates the operation at an internal node.
func (e *Expr) SetOp(n *Node, op Op) {
	if e.mutable() {
		e.con.SetOp(n, op)
	}
}

// SetOps updates a batch of internal operations in one parallel heal.
func (e *Expr) SetOps(ns []*Node, ops []Op) {
	if e.mutable() {
		e.con.SetOps(ns, ops)
	}
}

// Stats returns the cost of the most recent dynamic operation.
func (e *Expr) Stats() HealStats { return e.con.LastHeal() }

// LastHeal is Stats under the name the serving engine's heal-reporting
// capability expects; the engine folds it into its counters and traces.
func (e *Expr) LastHeal() HealStats { return e.con.LastHeal() }

// PRAM returns the accumulated machine metrics.
func (e *Expr) PRAM() Metrics { return e.mach.Metrics() }

// HasTour reports whether the Expr maintains its Eulerian tour (WithTour):
// the §5 property queries — and cross-tree subtree-size reads — require it.
func (e *Expr) HasTour() bool { return e.tour != nil }

// tourOrPanic guards the §5 application queries.
func (e *Expr) tourOrPanic() *euler.Tour {
	if e.tour == nil {
		panic("dyntc: tree-property queries require WithTour()")
	}
	return e.tour
}

// Preorder returns n's 1-based preorder number (requires WithTour).
func (e *Expr) Preorder(n *Node) int { return e.tourOrPanic().Preorder(n) }

// Postorder returns n's 1-based postorder number (requires WithTour).
func (e *Expr) Postorder(n *Node) int { return e.tourOrPanic().Postorder(n) }

// Ancestors returns the number of proper ancestors of n (requires
// WithTour).
func (e *Expr) Ancestors(n *Node) int { return e.tourOrPanic().Ancestors(n) }

// SubtreeSize returns the node count of n's subtree (requires WithTour).
func (e *Expr) SubtreeSize(n *Node) int { return e.tourOrPanic().SubtreeSize(n) }

// LCA returns the least common ancestor of u and v (requires WithTour).
func (e *Expr) LCA(u, v *Node) *Node { return e.tourOrPanic().LCA(u, v) }

// IsAncestor reports whether a is an (inclusive) ancestor of b (requires
// WithTour).
func (e *Expr) IsAncestor(a, b *Node) bool { return e.tourOrPanic().IsAncestor(a, b) }

// EulerTour returns the current Eulerian tour as (node, enter) visits
// (requires WithTour).
func (e *Expr) EulerTour() []TourEntry {
	seq := e.tourOrPanic().Sequence()
	out := make([]TourEntry, len(seq))
	for i, s := range seq {
		out[i] = TourEntry{Node: s.Node, Enter: s.Enter}
	}
	return out
}

// TourEntry is one Eulerian tour visit.
type TourEntry struct {
	Node  *Node
	Enter bool
}

// Monoid is an associative combine with identity, for NewList.
type Monoid[V any] = listprefix.Monoid[V]

// List is the incremental list prefix structure of §3.
type List[V any] = listprefix.List[V]

// ListElem is a stable handle to a list element; it remains valid across
// every mutation until the element is deleted. A deleted element's handle
// must not be used after the next insertion or deletion: its node may then
// hold another element. Until then, deleting it again panics.
type ListElem[V any] = listprefix.Elem[V]

// NewList builds a dynamic list with monoid aggregation supporting batch
// prefix queries, updates, insertion and deletion (Theorem 3.1).
func NewList[V any](seed uint64, m Monoid[V], values []V) *List[V] {
	return listprefix.New(seed, m, values)
}

// SumMonoid returns the (ℤ, +) monoid for NewList.
func SumMonoid() Monoid[int64] { return listprefix.SumInt64() }
