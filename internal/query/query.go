// Package query is the cross-tree read engine over a forest of served
// expression trees: the layer between the per-tree coalescing engines
// (internal/engine) and the HTTP surface (cmd/dyntcd).
//
// A single-tree engine answers one tree's reads fast, but the forest
// serves many independent trees and dashboard-shaped workloads ("sum of
// roots across my 10k trees") would otherwise issue one round-trip per
// tree. Batch read queries dominate real batch-dynamic workloads and
// batch exceptionally well (Ikram et al. 2025; Acar et al. 2020), so this
// package makes them one call: a Spec names a set of trees (explicit IDs,
// all, or an ID range), a per-tree read (root value, node value, subtree
// size) and a combiner (sum / min / max / count, or a semiring combine
// over the existing Ring algebra), and the Planner scatters the reads
// over a few goroutines and gathers the partial results.
//
// Scatter rides each engine's coalescing window: root and node-value
// reads are submitted asynchronously and join whatever wave the target
// engine is flushing — there is no global barrier, and mutation traffic
// keeps flowing while a query is in flight. Each per-tree result carries
// the applied-wave sequence number the read observed, so callers see
// exactly which version of every tree answered (and can replay a wave log
// to that sequence to audit the answer).
package query

import (
	"errors"
	"fmt"
	"math"

	"dyntc/internal/semiring"
)

// Errors reported per tree (in TreeResult.Err) or for a whole Spec.
var (
	// ErrNoTree reports a selected tree id the reader does not serve.
	ErrNoTree = errors.New("query: no such tree")
	// ErrNoTour reports a subtree-size read against a tree built without
	// tour maintenance (dyntc.WithTour).
	ErrNoTour = errors.New("query: tree does not maintain the Eulerian tour (WithTour)")
	// ErrBadSpec reports an invalid query specification.
	ErrBadSpec = errors.New("query: invalid spec")
)

// ReadKind enumerates the per-tree reads a query can scatter.
type ReadKind uint8

const (
	// ReadRoot reads the tree's root value (the whole expression).
	ReadRoot ReadKind = iota
	// ReadValue reads the value of the subexpression rooted at Read.Node.
	ReadValue
	// ReadSubtree reads the node count of the subtree rooted at Read.Node
	// (requires the tree to maintain its Eulerian tour).
	ReadSubtree
)

// Read is the per-tree read a query performs on every selected tree.
type Read struct {
	Kind ReadKind
	Node int // target node id for ReadValue / ReadSubtree
}

// Root reads every selected tree's root value.
func Root() Read { return Read{Kind: ReadRoot} }

// Value reads the value at dense node id node of every selected tree.
func Value(node int) Read { return Read{Kind: ReadValue, Node: node} }

// SubtreeSize reads the subtree node count at dense node id node of every
// selected tree (each tree must maintain its tour).
func SubtreeSize(node int) Read { return Read{Kind: ReadSubtree, Node: node} }

// CombineKind enumerates the cross-tree combiners.
type CombineKind uint8

const (
	// CombineSum adds the per-tree values as plain int64s.
	CombineSum CombineKind = iota
	// CombineMin takes the minimum per-tree value.
	CombineMin
	// CombineMax takes the maximum per-tree value.
	CombineMax
	// CombineCount counts the trees that answered (values ignored).
	CombineCount
	// CombineRingAdd folds values with Ring.Add from Ring.Zero.
	CombineRingAdd
	// CombineRingMul folds values with Ring.Mul from Ring.One.
	CombineRingMul
)

// Combiner joins per-tree read results into one forest-wide answer. The
// zero value is CombineSum.
type Combiner struct {
	Kind CombineKind
	Ring semiring.Ring // required for the ring combiners
}

// Sum combines by plain int64 addition.
func Sum() Combiner { return Combiner{Kind: CombineSum} }

// Min combines by minimum.
func Min() Combiner { return Combiner{Kind: CombineMin} }

// Max combines by maximum.
func Max() Combiner { return Combiner{Kind: CombineMax} }

// Count counts answering trees.
func Count() Combiner { return Combiner{Kind: CombineCount} }

// RingAdd combines with r.Add starting from r.Zero().
func RingAdd(r semiring.Ring) Combiner { return Combiner{Kind: CombineRingAdd, Ring: r} }

// RingMul combines with r.Mul starting from r.One().
func RingMul(r semiring.Ring) Combiner { return Combiner{Kind: CombineRingMul, Ring: r} }

// Identity returns the combiner's fold identity (the Combined value of a
// query that selected no trees).
func (c Combiner) Identity() int64 {
	switch c.Kind {
	case CombineMin:
		return math.MaxInt64
	case CombineMax:
		return math.MinInt64
	case CombineRingAdd:
		return c.Ring.Zero()
	case CombineRingMul:
		return c.Ring.One()
	}
	return 0
}

// Fold accumulates one per-tree value into acc.
func (c Combiner) Fold(acc, v int64) int64 {
	switch c.Kind {
	case CombineMin:
		return min(acc, v)
	case CombineMax:
		return max(acc, v)
	case CombineCount:
		return acc + 1
	case CombineRingAdd:
		return c.Ring.Add(acc, c.Ring.Normalize(v))
	case CombineRingMul:
		return c.Ring.Mul(acc, c.Ring.Normalize(v))
	}
	return acc + v
}

// Merge joins two partial accumulators (the gather step of the
// scatter-gather join). For every combiner but Count it coincides with
// Fold; counts add.
func (c Combiner) Merge(a, b int64) int64 {
	if c.Kind == CombineCount {
		return a + b
	}
	return c.Fold(a, b)
}

func (c Combiner) validate() error {
	switch c.Kind {
	case CombineSum, CombineMin, CombineMax, CombineCount:
		return nil
	case CombineRingAdd, CombineRingMul:
		if c.Ring == nil {
			return fmt.Errorf("%w: ring combiner without a ring", ErrBadSpec)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown combiner %d", ErrBadSpec, c.Kind)
}

// Selector names the set of trees a query scatters over. Zero value =
// every served tree. Explicit IDs win over the range; an explicit id the
// reader does not serve yields a per-tree ErrNoTree result rather than
// failing the query.
type Selector struct {
	IDs      []uint64 // explicit tree ids, queried in the given order
	From, To uint64   // inclusive id range, active when To != 0
}

// All selects every served tree.
func All() Selector { return Selector{} }

// IDs selects exactly the given trees.
func IDs(ids ...uint64) Selector { return Selector{IDs: ids} }

// Range selects served trees with From <= id <= To.
func Range(from, to uint64) Selector { return Selector{From: from, To: to} }

// resolve maps the selector to the concrete id list to scatter over,
// given the reader's (sorted) served ids.
func (s Selector) resolve(served []uint64) []uint64 {
	if len(s.IDs) > 0 {
		return s.IDs
	}
	if s.To == 0 {
		return served
	}
	out := make([]uint64, 0, len(served))
	for _, id := range served {
		if id >= s.From && id <= s.To {
			out = append(out, id)
		}
	}
	return out
}

func (s Selector) validate() error {
	if s.To != 0 && s.From > s.To {
		return fmt.Errorf("%w: range [%d, %d] is empty", ErrBadSpec, s.From, s.To)
	}
	// From without To would silently fall back to all trees — ids start
	// at 1, so To == 0 is never a legitimate range endpoint.
	if s.To == 0 && s.From != 0 && len(s.IDs) == 0 {
		return fmt.Errorf("%w: range lower bound %d without an upper bound", ErrBadSpec, s.From)
	}
	return nil
}

// Spec is one cross-tree query: which trees, what to read on each, and
// how to join the answers.
type Spec struct {
	Select  Selector
	Read    Read
	Combine Combiner
	// Detail requests the per-tree breakdown (Result.Detail): each tree's
	// value, applied-wave sequence and error. Off by default — a 10k-tree
	// aggregate then allocates no per-tree results.
	Detail bool
}

func (q Spec) validate() error {
	switch q.Read.Kind {
	case ReadRoot, ReadValue, ReadSubtree:
	default:
		return fmt.Errorf("%w: unknown read kind %d", ErrBadSpec, q.Read.Kind)
	}
	if q.Read.Kind != ReadRoot && q.Read.Node < 0 {
		return fmt.Errorf("%w: negative node id %d", ErrBadSpec, q.Read.Node)
	}
	if err := q.Select.validate(); err != nil {
		return err
	}
	return q.Combine.validate()
}

// TreeResult is one tree's contribution to a query.
type TreeResult struct {
	Tree  uint64 // tree id
	Value int64  // the read's value (combiner input)
	Seq   uint64 // applied-wave sequence the read observed
	Err   error  // per-tree failure (dead node, no tour, no such tree)
}

// Result is a completed cross-tree query.
type Result struct {
	Combined int64        // the combiner's fold over every answering tree
	Trees    int          // trees that answered (combined)
	Errors   int          // trees that failed their read
	Detail   []TreeResult // per-tree results, scatter order; nil unless Spec.Detail
}
