package engine

import (
	"dyntc/internal/core"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// Local aliases for the host-side types, so Host's method set is written
// once and matches dyntc.Expr's signatures exactly.
type (
	// TreeT is the host expression tree.
	TreeT = tree.Tree
	// NodeT is a node of the host tree.
	NodeT = tree.Node
	// OpT is a symmetric node operation.
	OpT = semiring.Op
	// GrowOp is one leaf expansion of a grow batch.
	GrowOp = core.AddOp
	// CollapseOp is one leaf-pair deletion of a collapse batch.
	CollapseOp = core.RemoveOp
	// HealStats is the per-wave heal cost report of the contraction core.
	HealStats = core.HealStats
)
