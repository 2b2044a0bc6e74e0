package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Forest shards independent expression trees across engines: each tree gets
// its own Engine (and executor goroutine), so traffic against unrelated
// trees proceeds fully in parallel while every single tree keeps its
// single-writer guarantee. The id→engine index is striped to keep the hot
// Get path uncontended under many concurrent clients.
type Forest struct {
	opts Options
	inst *instruments // shared by every engine (nil without Options.Obs)

	next   sync.Mutex // guards nextID
	nextID uint64

	shards [forestShards]forestShard
}

const forestShards = 16

type forestShard struct {
	mu      sync.RWMutex
	engines map[uint64]*Engine
}

// NewForest creates an empty forest; opts configures every engine it
// adds. The engine families are registered on opts.Obs here, once, so an
// empty forest already exports them.
func NewForest(opts Options) *Forest {
	f := &Forest{opts: opts, inst: newInstruments(opts.Obs), nextID: 1}
	for i := range f.shards {
		f.shards[i].engines = make(map[uint64]*Engine)
	}
	return f
}

func (f *Forest) shard(id uint64) *forestShard {
	return &f.shards[id%forestShards]
}

// Add starts an engine over host and returns its tree id. A freshly
// allocated id can collide with a concurrent AddAt that claimed it first
// (AddAt bumps the allocator, but an Add may already hold a lower id);
// occupancy is re-checked under the shard lock and a taken id is simply
// skipped.
func (f *Forest) Add(host Host) (uint64, *Engine) {
	e := newEngine(host, f.opts, f.inst)
	for {
		f.next.Lock()
		id := f.nextID
		f.nextID++
		f.next.Unlock()

		s := f.shard(id)
		s.mu.Lock()
		if _, taken := s.engines[id]; !taken {
			s.engines[id] = e
			s.mu.Unlock()
			e.SetTraceID(id)
			return id, e
		}
		s.mu.Unlock()
	}
}

// AddAt starts an engine over host under a caller-chosen tree id — the
// restore path: a follower (or a PUT-snapshot) must register a tree under
// the leader's id, not the next free one. It fails when the id is taken,
// and bumps the id allocator past id so later Adds never collide.
func (f *Forest) AddAt(id uint64, host Host) (*Engine, error) {
	f.next.Lock()
	if id >= f.nextID {
		f.nextID = id + 1
	}
	f.next.Unlock()

	s := f.shard(id)
	s.mu.Lock()
	if _, ok := s.engines[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (tree %d)", ErrTreeExists, id)
	}
	e := newEngine(host, f.opts, f.inst)
	e.SetTraceID(id)
	s.engines[id] = e
	s.mu.Unlock()
	return e, nil
}

// Get returns the engine serving tree id.
func (f *Forest) Get(id uint64) (*Engine, bool) {
	s := f.shard(id)
	s.mu.RLock()
	e, ok := s.engines[id]
	s.mu.RUnlock()
	return e, ok
}

// Drop closes and removes tree id, reporting whether it existed. Pending
// requests drain before Drop returns.
func (f *Forest) Drop(id uint64) bool {
	s := f.shard(id)
	s.mu.Lock()
	e, ok := s.engines[id]
	delete(s.engines, id)
	s.mu.Unlock()
	if ok {
		e.Close()
	}
	return ok
}

// Len returns the number of live trees.
func (f *Forest) Len() int {
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		n += len(s.engines)
		s.mu.RUnlock()
	}
	return n
}

// IDs returns a sorted snapshot of the live tree ids — the iteration seam
// cross-tree queries plan against (trees added or dropped afterwards are
// the caller's race to handle per tree).
func (f *Forest) IDs() []uint64 {
	ids := make([]uint64, 0, 64)
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		for id := range s.engines {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Each calls fn for every live tree. fn must not call back into the forest.
func (f *Forest) Each(fn func(id uint64, e *Engine)) {
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.RLock()
		for id, e := range s.engines {
			fn(id, e)
		}
		s.mu.RUnlock()
	}
}

// TotalStats aggregates the stats of every live engine. Flush latency
// percentiles are computed over the union of the engines' retained
// latency windows — the combined distribution — not the max of per-tree
// percentiles Stats.Add alone would report (which overstates the median
// of a large forest by its single worst tree).
func (f *Forest) TotalStats() Stats {
	var total Stats
	var lat []int64
	f.Each(func(_ uint64, e *Engine) {
		total.Add(e.Stats())
		lat = e.stats.window(lat)
	})
	total.FlushP50US, total.FlushP99US = percentilesUS(lat)
	return total
}

// Close drains and closes every engine and empties the forest.
func (f *Forest) Close() {
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		for id, e := range s.engines {
			e.Close()
			delete(s.engines, id)
		}
		s.mu.Unlock()
	}
}
