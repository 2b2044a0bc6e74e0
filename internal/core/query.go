package core

import "dyntc/internal/tree"

// Value returns the value of the subexpression rooted at n (the paper's
// "parallel tree contraction queries which require recomputing values at
// specified nodes"). Leaves answer directly; internal nodes replay the
// expansion lazily: at the record that removed n, the values flowing
// through n's two current children were exactly the subtree values of the
// nodes merged into those positions, so
//
//	val(n) = op_n( VAL(v-side), VAL(w-side) )
//
// where the v-side is the raked leaf's constant label and the w-side
// recurses into Wrep — a strict descendant of n — giving a well-founded
// recursion memoized per call.
func (c *Contraction) Value(n *tree.Node) int64 {
	return c.ValuesBatch([]*tree.Node{n})[0]
}

// ValuesBatch answers a set of value queries, sharing one memo table (the
// paper's batch query with the same wound-activation bounds; the shared
// memo is what makes overlapping query paths cost their union, not their
// sum).
func (c *Contraction) ValuesBatch(nodes []*tree.Node) []int64 {
	memo := make(map[cellRef]int64)
	out := make([]int64, len(nodes))
	work := 0
	for i, n := range nodes {
		if u := c.cellFor(n); u != 0 {
			out[i] = c.value(u, memo, &work)
		} else {
			out[i] = n.Value // a node that left T is a leaf holding its last value
		}
	}
	// Metering: the expansion replays one record per memo entry; rounds
	// are bounded by the wound depth (measured rather than recharged
	// per-level here).
	c.machine.ChargeSpan(1, int64(work), int64(len(nodes)))
	return out
}

// value computes val(u) iteratively with an explicit stack so adversarially
// deep dependency chains cannot overflow the goroutine stack.
func (c *Contraction) value(u cellRef, memo map[cellRef]int64, work *int) int64 {
	type frame struct {
		u    cellRef
		seen bool
	}
	stack := []frame{{u, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := memo[f.u]; ok {
			continue
		}
		x := c.cell(f.u)
		if x.isLeaf() {
			memo[f.u] = x.value()
			continue
		}
		r := c.recs.Get(x.removedBy)
		if r == nil {
			panic("core: query on a node outside the trace")
		}
		dep := c.wSideDep(r)
		if !f.seen {
			stack = append(stack, frame{f.u, true})
			if dep != 0 {
				stack = append(stack, frame{dep, false})
			}
			continue
		}
		*work++
		var wVal int64
		if dep != 0 {
			wVal = memo[dep]
		} else {
			wVal = r.LwIn.B // w was a leaf: its label is the constant value
		}
		memo[f.u] = x.op.Eval(c.ring, r.Lv.B, wVal)
	}
	return memo[u]
}

// wSideDep returns the node whose memoized value feeds the w-side of the
// record, or none when the w-side is a direct leaf constant.
func (c *Contraction) wSideDep(r *Record) cellRef {
	if c.cell(r.W).isLeaf() {
		return 0
	}
	return r.Wrep
}

// ValueOracle recomputes val(n) directly from T (tests compare Value
// against it).
func (c *Contraction) ValueOracle(n *tree.Node) int64 { return c.T.EvalAt(n) }
