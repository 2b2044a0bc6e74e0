// Package batch holds the request and report types of one contraction
// batch: the leaf expansions and deletions core.Contraction applies and
// the heal cost it reports back. They live apart from internal/core so
// that a layer which only assembles batches and reads reports — the
// request-coalescing engine — does not depend on the PRAM machine the
// contraction executes on. internal/core re-exports every name.
package batch

import (
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// AddOp grows a leaf into an operation node with two fresh leaf children
// (§4.1 "add two new children below a current leaf").
type AddOp struct {
	Leaf     *tree.Node
	Op       semiring.Op
	LeftVal  int64
	RightVal int64
}

// RemoveOp collapses an internal node whose children are both leaves back
// into a leaf with the given value (§4.1 "delete two leaf children").
type RemoveOp struct {
	Node     *tree.Node
	NewValue int64
}

// HealStats reports the cost of the most recent dynamic operation.
type HealStats struct {
	// WoundRecords is the number of rake records re-executed (label-only
	// and structural together). A full re-simulation counts every record.
	WoundRecords int
	// WoundRounds is the number of distinct rounds among them (the span of
	// the healing phase in the PRAM model).
	WoundRounds int
	// StructRecords is the number of records structurally re-executed by
	// change propagation (participants and links recomputed, not just
	// labels). Zero for label-only waves and for full re-simulations.
	StructRecords int
	// TotalRecords is the trace size (leaves-1) after the operation, the
	// denominator for the records-touched ratio.
	TotalRecords int
	// Resimulated reports that the whole trace was rebuilt (the structural
	// fallback path: gate off, full PT rebuild, or oversized wound).
	Resimulated bool
	// ResimReason names why, one of ResimReasons; empty when the wave did
	// not re-simulate.
	ResimReason string
	// RebuildLeaves is the total size of PT subtree rebuilds (Theorem 2.2's
	// random variable S).
	RebuildLeaves int
}

// The reasons a structural wave falls back to a full re-simulation.
const (
	ResimGate        = "gate"         // change propagation switched off (tests only)
	ResimFullRebuild = "full_rebuild" // PT rebuilt from its root
	ResimTiny        = "tiny"         // fewer than minPropagateLeaves leaves
	ResimOrder       = "order"        // a record popped before one already executed
	ResimBudget      = "budget"       // the wound stopped being local
	ResimSanity      = "sanity"       // a touch chain contradicted itself
)

// ResimReasons lists every value HealStats.ResimReason takes on a
// re-simulated wave.
var ResimReasons = [...]string{ResimGate, ResimFullRebuild, ResimTiny, ResimOrder, ResimBudget, ResimSanity}
