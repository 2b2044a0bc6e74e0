// Package canon implements canonical forms of trees — application (e) of
// Reif & Tate, SPAA'94, §5 (Theorem 5.2) — as dynamically maintained
// isomorphism codes for unordered binary trees.
//
// The classical deterministic canonical form (AHU) sorts subtree encodings
// bottom-up; that combination is not a ring operation, so instead the
// dynamic code uses a randomized-identity substitution instead: every
// internal node combines its children with the same
// symmetric bilinear operation
//
//	q(x, y) = a·x·y + b·(x + y) + c  over GF(p),
//
// whose symmetry makes the code invariant under arbitrary child swaps,
// while Schwartz–Zippel bounds the collision probability of two
// non-isomorphic trees by deg/p per comparison. Because q is exactly the
// label algebra of package core, the code is maintained under every dynamic
// operation by the same contraction engine with the paper's bounds.
//
// The deterministic AHU string and a brute-force unordered-isomorphism
// check are provided as test oracles.
package canon

import (
	"sort"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// Hasher holds the randomized code parameters: a modular ring, the shared
// symmetric combination operation, and the leaf encoding.
type Hasher struct {
	Ring semiring.ModRing
	Op   semiring.Op
	// leafCode is the fixed code assigned to every (unlabeled) leaf.
	leafCode int64
}

// NewHasher draws code parameters from the seed. The modulus is a fixed
// 30-bit prime so products stay in int64.
func NewHasher(seed uint64) *Hasher {
	src := prng.New(seed)
	const p = 1_000_000_007
	r := semiring.NewMod(p)
	h := &Hasher{Ring: r}
	// a must be nonzero so the operation depends on both children jointly;
	// b nonzero keeps single-child sensitivity.
	h.Op = semiring.Op{
		A: 1 + src.Int63()%(p-1),
		B: 1 + src.Int63()%(p-1),
		C: src.Int63() % p,
	}
	h.leafCode = 1 + src.Int63()%(p-1)
	return h
}

// LeafCode returns the code value a leaf should carry.
func (h *Hasher) LeafCode() int64 { return h.leafCode }

// NewCodeTree builds an expression tree with the same shape as the given
// ordered shape description, suitable for a core.Contraction: all internal
// nodes carry h.Op and all leaves carry h.LeafCode(). shape is any existing
// tree whose topology should be encoded.
func (h *Hasher) NewCodeTree(shape *tree.Tree) *tree.Tree {
	ct := tree.New(h.Ring, h.leafCode)
	var clone func(src, dst *tree.Node)
	clone = func(src, dst *tree.Node) {
		if src.IsLeaf() {
			return
		}
		l, r := ct.AddChildren(dst, h.Op, h.leafCode, h.leafCode)
		clone(src.Left, l)
		clone(src.Right, r)
	}
	clone(shape.Root, ct.Root)
	return ct
}

// Code computes the subtree code of n directly (the static reference; the
// dynamic path evaluates the same function through core.Contraction).
func (h *Hasher) Code(n *tree.Node) int64 {
	if n.IsLeaf() {
		return h.leafCode
	}
	return h.Op.Eval(h.Ring, h.Code(n.Left), h.Code(n.Right))
}

// AHU returns the deterministic canonical form of the unordered binary
// tree rooted at n: leaves are "()" and internal nodes concatenate their
// children's forms in sorted order. Two subtrees are unordered-isomorphic
// iff their AHU strings are equal.
func AHU(n *tree.Node) string {
	if n.IsLeaf() {
		return "()"
	}
	a, b := AHU(n.Left), AHU(n.Right)
	if b < a {
		a, b = b, a
	}
	return "(" + a + b + ")"
}

// Isomorphic reports unordered isomorphism of two binary trees by
// brute-force recursion (test oracle; exponential-free but O(n log n)-ish
// via AHU).
func Isomorphic(a, b *tree.Node) bool {
	return AHU(a) == AHU(b)
}

// AllShapes enumerates the AHU forms of every distinct unordered binary
// tree shape with exactly leaves leaves (the Wedderburn–Etherington
// enumeration), used by tests to measure collision behaviour.
func AllShapes(leaves int) []string {
	memo := map[int][]string{1: {"()"}}
	var gen func(k int) []string
	gen = func(k int) []string {
		if got, ok := memo[k]; ok {
			return got
		}
		set := map[string]bool{}
		for l := 1; l < k; l++ {
			for _, ls := range gen(l) {
				for _, rs := range gen(k - l) {
					a, b := ls, rs
					if b < a {
						a, b = b, a
					}
					set["("+a+b+")"] = true
				}
			}
		}
		out := make([]string, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Strings(out)
		memo[k] = out
		return out
	}
	return gen(leaves)
}
