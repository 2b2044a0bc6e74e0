package obs

import "sync"

// WaveTrace is one sampled flush of one engine's wave pipeline: how long
// the oldest request coalesced, how long each phase of each wave ran, and
// the whole submit→ack span. The engine fills one of these per sampled
// flush (and for every flush over the slow-wave threshold); dyntcd dumps
// the ring via GET /v1/trace?n=.
type WaveTrace struct {
	Tree     uint64 `json:"tree"`               // forest tree id (0 for a lone engine)
	Seq      uint64 `json:"applied_seq"`        // applied-wave sequence after the flush
	Epoch    uint64 `json:"epoch,omitempty"`    // leadership term the flush ran under
	TraceID  SpanID `json:"trace_id,omitempty"` // distributed trace the flush belongs to, if sampled into one
	Reqs     int    `json:"reqs"`               // requests in the flush
	Waves    int    `json:"waves"`              // conflict-free waves the flush split into
	Coalesce int64  `json:"coalesce_ns"`        // oldest request's submit→flush-start wait
	Flush    int64  `json:"flush_ns"`           // flush-start→all-acked span
	Grow     int64  `json:"grow_ns"`            // per-phase execution time, summed over waves
	Collapse int64  `json:"collapse_ns"`
	SetLeaf  int64  `json:"set_leaf_ns"`
	SetOp    int64  `json:"set_op_ns"`
	Seal     int64  `json:"seal_ns"` // wave seal: change-log record build + tap/WAL append
	Value    int64  `json:"value_ns"`
	Barrier  int64  `json:"barrier_ns"`

	// Heal cost of the flush's mutating waves: trace records re-executed
	// (the change-propagation work), waves that fell back to a full
	// re-simulation and why the last of them did (gate, full_rebuild,
	// tiny, order, budget or sanity), and the contraction's trace size
	// after the last mutating wave (so records/size ratios read straight
	// off the trace).
	HealRecords  int64  `json:"heal_records,omitempty"`
	Resims       int    `json:"resims,omitempty"`
	ResimReason  string `json:"resim_reason,omitempty"`
	TraceRecords int    `json:"trace_records,omitempty"`
}

// TraceRing is a bounded ring of WaveTrace records: Add keeps the newest
// cap records, evicting the oldest. One short mutex section per sampled
// flush — sampling keeps it off the per-request path entirely.
type TraceRing struct {
	mu  sync.Mutex
	buf []WaveTrace
	pos int // next write slot
	n   int // total records ever added
}

// NewTraceRing creates a ring retaining up to capacity records (a small
// default when capacity <= 0).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &TraceRing{buf: make([]WaveTrace, capacity)}
}

// Add records one trace, evicting the oldest when full.
func (t *TraceRing) Add(w WaveTrace) {
	t.mu.Lock()
	t.buf[t.pos] = w
	t.pos = (t.pos + 1) % len(t.buf)
	t.n++
	t.mu.Unlock()
}

// Len returns the number of records currently retained.
func (t *TraceRing) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return min(t.n, len(t.buf))
}

// Total returns the number of records ever added (retained or evicted).
func (t *TraceRing) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Last returns up to n of the newest records, oldest first. n <= 0 means
// everything retained.
func (t *TraceRing) Last(n int) []WaveTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	have := min(t.n, len(t.buf))
	if n <= 0 || n > have {
		n = have
	}
	out := make([]WaveTrace, n)
	start := t.pos - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}
