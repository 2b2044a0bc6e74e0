package query

import (
	"runtime"
	"sync"
	"time"

	"dyntc/internal/obs"
)

// Metrics is the query engine's instrument bundle, registered on the hub
// a planner is built with (NewPlanner).
type Metrics struct {
	// Queries counts completed Run calls.
	Queries *obs.Counter
	// TreeErrors counts per-tree read errors across all queries.
	TreeErrors *obs.Counter
	// ScatterWidth is the number of chunks each query scattered into.
	ScatterWidth *obs.Histogram
	// JoinSeconds is the whole scatter-gather-join span of one query.
	JoinSeconds *obs.Histogram
}

// NewMetrics registers the query families on reg.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Queries:      r.Counter("dyntc_query_total", "cross-tree queries executed"),
		TreeErrors:   r.Counter("dyntc_query_tree_errors_total", "per-tree read errors across all queries"),
		ScatterWidth: r.HistogramWith("dyntc_query_scatter_width", "chunks one cross-tree query scattered into", obs.CountBuckets, 1),
		JoinSeconds:  r.Seconds("dyntc_query_join_seconds", "scatter-gather-join span of one cross-tree query"),
	}
}

// Planner scatters cross-tree queries: each query is split into
// contiguous id chunks, every chunk but the last runs on its own goroutine
// and the querying goroutine runs the last. One planner serves any number
// of concurrent queries and owns no goroutines between them. The width is
// the scatter parallelism hint: how many chunks a query is split into.
type Planner struct {
	width int
	m     *Metrics // nil without a hub
}

// NewPlanner creates a planner with the given scatter parallelism
// (GOMAXPROCS when <= 0). A non-nil hub gets the query families
// registered on its registry, and every query feeds them.
func NewPlanner(workers int, h *obs.Hub) *Planner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Planner{width: workers}
	if h != nil {
		p.m = NewMetrics(h.Registry())
	}
	return p
}

// Run executes one cross-tree query: resolve the selector against the
// reader's served trees, scatter the per-tree reads in contiguous id
// chunks, and gather the partial folds into one Result.
//
// Within a chunk every read is submitted asynchronously before any is
// waited on, so reads join the target engines' in-flight coalescing
// windows instead of serializing round-trips; across chunks the
// goroutines overlap submission and collection. There is no cross-tree barrier of
// any kind — each tree answers at whatever applied-wave sequence its
// engine had reached, and that sequence is reported per tree.
func (p *Planner) Run(r Reader, spec Spec) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	// Explicit-ID queries never pay the served-tree scan (a copy + sort
	// of the whole forest's ids); only range/all selectors need it.
	ids := spec.Select.IDs
	if len(ids) == 0 {
		ids = spec.Select.resolve(r.Trees())
	}
	res := Result{Combined: spec.Combine.Identity()}
	if len(ids) == 0 {
		return res, nil
	}

	nchunks := p.width
	if len(ids) < nchunks {
		nchunks = len(ids)
	}
	chunkLen := (len(ids) + nchunks - 1) / nchunks
	// Ceil division can make the last chunks empty (e.g. 9 ids on 8
	// workers → 5 chunks of 2); walk by offset so every chunk is non-empty.
	nchunks = (len(ids) + chunkLen - 1) / chunkLen

	if m := p.m; m != nil {
		t0 := time.Now()
		defer func() {
			m.Queries.Inc()
			m.ScatterWidth.Observe(int64(nchunks))
			m.JoinSeconds.Observe(int64(time.Since(t0)))
			m.TreeErrors.Add(uint64(res.Errors))
		}()
	}

	var detail []TreeResult
	if spec.Detail {
		detail = make([]TreeResult, len(ids))
	}
	partials := make([]int64, nchunks)
	counts := make([]int, nchunks)
	errCounts := make([]int, nchunks)

	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		lo := c * chunkLen
		hi := lo + chunkLen
		if hi > len(ids) {
			hi = len(ids)
		}
		c, lo, hi := c, lo, hi
		task := func() {
			defer wg.Done()
			// Scatter: submit the whole chunk before waiting on anything.
			handles := make([]Handle, hi-lo)
			for i := lo; i < hi; i++ {
				handles[i-lo] = r.Start(ids[i], spec.Read)
			}
			// Gather: wait, record, fold.
			acc := spec.Combine.Identity()
			for i := lo; i < hi; i++ {
				tr := TreeResult{Tree: ids[i]}
				if h := handles[i-lo]; h == nil {
					tr.Err = ErrNoTree
				} else {
					tr.Value, tr.Seq, tr.Err = h.Wait()
				}
				if tr.Err != nil {
					errCounts[c]++
				} else {
					acc = spec.Combine.Fold(acc, tr.Value)
					counts[c]++
				}
				if detail != nil {
					detail[i] = tr
				}
			}
			partials[c] = acc
		}
		wg.Add(1)
		if c == nchunks-1 {
			task()
		} else {
			go task()
		}
	}
	wg.Wait()

	// Join the per-chunk partial folds in chunk (= id) order.
	for c := 0; c < nchunks; c++ {
		if counts[c] > 0 {
			res.Combined = spec.Combine.Merge(res.Combined, partials[c])
			res.Trees += counts[c]
		}
		res.Errors += errCounts[c]
	}
	res.Detail = detail
	return res, nil
}
