package dyntc

// This file is the cross-tree query face of the package (internal/query):
// one Forest.Query call scatters a per-tree read over any subset of the
// forest, rides each tree's coalescing engine (reads join in-flight
// waves — no global barrier), and gathers the partial results into one
// combined answer with the applied-wave sequence every tree answered at.
//
//	res, err := forest.Query(dyntc.ForestQuery{
//		Select:  dyntc.QueryRange(1, 10_000),
//		Read:    dyntc.ReadRoot(),
//		Combine: dyntc.CombineSum(),
//	})
//	// res.Combined, res.Trees, res.Detail[i].Seq ...
//
// cmd/dyntcd surfaces the same engine as POST /v1/query, on leaders and
// on read-replica followers (read offload).

import (
	"maps"
	"slices"

	"dyntc/internal/query"
)

// ForestQuery is one cross-tree query: which trees to read (Select),
// what to read on each (Read), and how to join the answers (Combine).
// Zero-value Select means every tree; zero-value Combine sums. Set
// Detail for the per-tree breakdown (value, applied-wave sequence,
// error) — off by default so huge aggregates allocate no per-tree
// results.
type ForestQuery = query.Spec

// QuerySelector names the trees a ForestQuery scatters over.
type QuerySelector = query.Selector

// QueryRead is the per-tree read of a ForestQuery.
type QueryRead = query.Read

// QueryCombiner joins per-tree values into the forest-wide answer.
type QueryCombiner = query.Combiner

// QueryResult is a completed cross-tree query: the combined value, how
// many trees answered, and per-tree detail (value + applied-wave
// sequence + error), in scatter order.
type QueryResult = query.Result

// TreeQueryResult is one tree's contribution to a QueryResult.
type TreeQueryResult = query.TreeResult

// Per-tree query errors (returned in TreeQueryResult.Err).
var (
	// ErrQueryNoTree reports a selected tree id the forest does not serve.
	ErrQueryNoTree = query.ErrNoTree
	// ErrQueryNoTour reports a subtree-size read on a tree built without
	// WithTour.
	ErrQueryNoTour = query.ErrNoTour
)

// QueryAll selects every served tree.
func QueryAll() QuerySelector { return query.All() }

// QueryIDs selects exactly the given trees; ids the forest does not serve
// produce per-tree ErrQueryNoTree results.
func QueryIDs(ids ...TreeID) QuerySelector { return query.IDs(ids...) }

// QueryRange selects served trees with from <= id <= to (inclusive).
func QueryRange(from, to TreeID) QuerySelector { return query.Range(from, to) }

// ReadRoot reads each selected tree's root value.
func ReadRoot() QueryRead { return query.Root() }

// ReadValue reads the value of the subexpression at dense node id node.
func ReadValue(node int) QueryRead { return query.Value(node) }

// ReadSubtreeSize reads the subtree node count at dense node id node
// (every selected tree must maintain its tour — see WithTour).
func ReadSubtreeSize(node int) QueryRead { return query.SubtreeSize(node) }

// CombineSum combines per-tree values by plain int64 addition.
func CombineSum() QueryCombiner { return query.Sum() }

// CombineMin combines by minimum.
func CombineMin() QueryCombiner { return query.Min() }

// CombineMax combines by maximum.
func CombineMax() QueryCombiner { return query.Max() }

// CombineCount counts the trees that answered (read values ignored).
func CombineCount() QueryCombiner { return query.Count() }

// CombineRingAdd folds per-tree values with r.Add starting from r.Zero().
func CombineRingAdd(r Ring) QueryCombiner { return query.RingAdd(r) }

// CombineRingMul folds per-tree values with r.Mul starting from r.One().
func CombineRingMul(r Ring) QueryCombiner { return query.RingMul(r) }

// Query runs one cross-tree query over the forest: the per-tree reads
// scatter in id chunks over short-lived goroutines and join each
// engine's pending flush, so a 10k-tree aggregate is one
// call, not 10k round-trips, and mutation traffic keeps flowing while
// the query is in flight. Each per-tree result reports the applied-wave
// sequence the read observed — exactly which version of that tree
// answered. Safe for concurrent use with every other Forest method.
func (f *Forest) Query(q ForestQuery) (QueryResult, error) {
	return f.planner.Run(forestReader{f}, q)
}

// forestReader is the planner's view of a Forest: the same index Get
// reads, so a query sees exactly the trees Get does.
type forestReader struct{ f *Forest }

// Trees returns the served tree ids, sorted ascending.
func (r forestReader) Trees() []uint64 {
	r.f.mu.RLock()
	defer r.f.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.f.trees))
}

// Start begins read rd on tree id; nil when the tree is not served.
func (r forestReader) Start(id uint64, rd query.Read) query.Handle {
	en, ok := r.f.Get(id)
	if !ok {
		return nil
	}
	return query.StartRead(en.inner, rd)
}
