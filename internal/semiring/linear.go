package semiring

// Linear is the paper's label pair (A, B): the function x ↦ A·x + B over a
// Ring. Initial internal-node labels are Identity (1, 0); leaf labels are
// Const(v) = (0, v) (§4.2: "all internal nodes are given the pair (1,0) as
// a label, and all leaves are given the pair (0,v)").
type Linear struct {
	A, B int64
}

// Identity returns the identity form (1, 0) of r.
func Identity(r Ring) Linear { return Linear{A: r.One(), B: r.Zero()} }

// Const returns the constant form (0, v) of r.
func Const(r Ring, v int64) Linear { return Linear{A: r.Zero(), B: v} }

// Apply evaluates the form at x: A·x + B.
func (f Linear) Apply(r Ring, x int64) int64 {
	return r.Add(r.Mul(f.A, x), f.B)
}

// Compose returns f∘g, the form x ↦ f(g(x)) = (A_f·A_g)·x + (A_f·B_g + B_f).
// This is the paper's "small-compress" label update: with f = (A, B) the
// pending form of the removed parent and g = (C, D) the sibling's form, the
// new sibling form is (A·C, A·D + B).
func (f Linear) Compose(r Ring, g Linear) Linear {
	return Linear{
		A: r.Mul(f.A, g.A),
		B: r.Add(r.Mul(f.A, g.B), f.B),
	}
}

// IsConst reports whether the form ignores its input (A == Zero), which is
// the invariant maintained for leaf labels throughout contraction.
func (f Linear) IsConst(r Ring) bool { return f.A == r.Zero() }

// Op is a symmetric bilinear node operation
//
//	q(x, y) = a·x·y + b·(x + y) + c
//
// over a Ring. The paper's node operations are the special cases
// OpAdd = (0,1,0) and OpMul = (1,0,0); the general form additionally covers
// the order-insensitive hash combination used for canonical forms (§5(e)).
// Symmetry (q(x,y) = q(y,x)) is what makes the rake of either sibling use
// the same Partial rule.
type Op struct {
	A, B, C int64
}

// Normalize reduces each coefficient of q into r, as a value entering a
// tree is reduced.
func (q Op) Normalize(r Ring) Op {
	return Op{A: r.Normalize(q.A), B: r.Normalize(q.B), C: r.Normalize(q.C)}
}

// OpAdd returns the addition operation x + y of r.
func OpAdd(r Ring) Op { return Op{A: r.Zero(), B: r.One(), C: r.Zero()} }

// OpMul returns the multiplication operation x · y of r.
func OpMul(r Ring) Op { return Op{A: r.One(), B: r.Zero(), C: r.Zero()} }

// Eval computes q(x, y).
func (q Op) Eval(r Ring, x, y int64) int64 {
	axy := r.Mul(r.Mul(q.A, x), y)
	bxy := r.Mul(q.B, r.Add(x, y))
	return r.Add(r.Add(axy, bxy), q.C)
}

// Partial fixes one argument of q at the constant k and returns the
// resulting linear form in the other argument:
//
//	q(k, y) = (a·k + b)·y + (b·k + c).
//
// This is the paper's "small-rake": absorbing the raked leaf's constant
// value into its parent's operation. For OpAdd it yields (1, k) and for
// OpMul (k, 0), matching §4.2's (C, C·B+D) and (C·B, D) updates once
// composed with the parent's pending form.
func (q Op) Partial(r Ring, k int64) Linear {
	return Linear{
		A: r.Add(r.Mul(q.A, k), q.B),
		B: r.Add(r.Mul(q.B, k), q.C),
	}
}
