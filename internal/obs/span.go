// Span-based distributed tracing for the wave lifecycle. A trace follows
// one batch of requests from HTTP ingest through engine coalesce/flush,
// the per-stage wave phases, the WAL append, and — across the process
// boundary — the follower's fetch and apply. Leader-side and
// follower-side spans are stitched together without any RPC metadata:
// both processes derive the same deterministic per-wave span ID from
// (epoch, seq), so the follower's spans parent onto the leader's wave
// span and one trace ID covers both processes.
//
// The exporter is a SpanLog: a bounded ring (ring.go) served at
// /v1/spans. Spans are only materialised for sampled flushes (or requests that carry an
// explicit trace header), so the unsampled hot path never allocates.
package obs

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID is a 64-bit trace or span identifier, rendered as 16 hex digits
// in JSON and in the X-Dyntc-Trace header.
type SpanID uint64

// MarshalJSON renders the ID as a fixed-width hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// UnmarshalJSON accepts the hex string form (and, leniently, a bare
// number for hand-written fixtures).
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := ParseSpanID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseSpanID parses the hex form produced by String.
func ParseSpanID(s string) (SpanID, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("obs: bad span id %q", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("obs: bad span id %q", s)
		}
		v = v<<4 | d
	}
	return SpanID(v), nil
}

// SpanContext is the propagated half of a span: the trace it belongs to
// and the span itself (the parent of whatever the receiver creates). The
// zero value means "not traced" and is free to carry.
type SpanContext struct {
	Trace SpanID
	Span  SpanID
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// idState seeds span-ID generation once per process.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
}

// nextID returns a process-unique non-zero 64-bit ID: an atomic counter
// pushed through a splitmix64 finalizer, so IDs are unique, cheap, and
// well mixed without a lock or a CSPRNG.
func nextID() SpanID {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return SpanID(x)
		}
	}
}

// NewTraceID returns a fresh trace ID.
func NewTraceID() SpanID { return nextID() }

// NewSpanID returns a fresh span ID.
func NewSpanID() SpanID { return nextID() }

// WaveSpanID is the deterministic span ID of the wave sealed as
// (epoch, seq). Both leader and follower compute it independently, so
// follower-side spans can parent onto the leader's wave span without any
// ID ever crossing the wire. FNV-1a over the two words, forced non-zero.
func WaveSpanID(epoch, seq uint64) SpanID {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (epoch >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return SpanID(h)
}

// Span is one recorded operation in a trace. Start is a wall-clock
// nanosecond timestamp (UnixNano) so spans recorded by different
// processes order on a shared axis; Dur is the span's length in
// nanoseconds. Tree/Seq/Epoch tie wave-scoped spans back to the change
// log; Reqs carries the batch width on flush spans.
type Span struct {
	Trace  SpanID `json:"trace"`
	Span   SpanID `json:"span"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	Proc   string `json:"proc,omitempty"`
	Tree   uint64 `json:"tree,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Start  int64  `json:"start"`
	Dur    int64  `json:"dur_ns"`
	Reqs   int    `json:"reqs,omitempty"`

	// The rest is set on engine.flush spans only: the conflict-free waves
	// the flush split into and its heal cost (see WaveTrace).
	Waves        int    `json:"waves,omitempty"`
	HealRecords  int64  `json:"heal_records,omitempty"`
	Resims       int    `json:"resims,omitempty"`
	ResimReason  string `json:"resim_reason,omitempty"`
	TraceRecords int    `json:"trace_records,omitempty"`
}

// WaveTrace is one flush of one engine's wave pipeline: how long the
// oldest request coalesced, how long each phase ran summed over the
// flush's waves, and the whole flush-start→all-acked span. The engine
// fills one per flush and hands it by value to Hub.FlushDone; a
// span-sampled flush also records it as its engine.flush span, with the
// stage times as stage.* children and the coalesce wait as
// engine.coalesce.
type WaveTrace struct {
	Tree     uint64 // forest tree id (0 for a lone engine)
	Seq      uint64 // applied-wave sequence after the flush
	Epoch    uint64 // leadership term the flush ran under
	TraceID  SpanID // the flush span's trace, when span-sampled
	Reqs     int    // ops in the flush (a barrier counts one)
	Waves    int    // conflict-free waves the flush split into
	Coalesce int64  // oldest request's submit→flush-start wait, ns
	Flush    int64  // flush-start→all-acked span, ns
	Grow     int64  // per-phase execution ns, summed over waves
	Collapse int64
	SetLeaf  int64
	SetOp    int64
	Seal     int64 // wave seal: change-log record build + tap/WAL append
	Value    int64
	Barrier  int64

	// Heal cost of the flush's mutating waves: trace records re-executed
	// (the change-propagation work), waves that re-simulated instead and
	// why the last of them did (gate, order, budget or sanity), and the
	// contraction's trace size
	// after the last mutating wave (so records/size ratios read straight
	// off the trace).
	HealRecords  int64
	Resims       int
	ResimReason  string
	TraceRecords int
}

// DefaultSpanCap is the span ring capacity when none is given: several
// spans per sampled flush plus one per wave.
const DefaultSpanCap = 4096

// SpanLog collects finished spans in a bounded ring for the /v1/spans
// endpoint. Add is mutex-guarded — spans are emitted once per sampled
// flush/wave, never per request, so the lock is off the hot path.
type SpanLog struct {
	mu   sync.Mutex
	ring ring[Span]
	proc string
}

// NewSpanLog creates a span log retaining up to capacity spans
// (DefaultSpanCap when <= 0). proc is stamped on every span recorded
// here ("leader", "follower", ...), identifying the process in merged
// traces.
func NewSpanLog(capacity int, proc string) *SpanLog {
	return &SpanLog{ring: newRing[Span](capacity, DefaultSpanCap), proc: proc}
}

// Add records a finished span, stamping the log's process label.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	if s.Proc == "" {
		s.Proc = l.proc
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.add(s)
}

// Total returns the number of spans ever recorded (including evicted).
func (l *SpanLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.total()
}

// Len returns the number of spans currently retained.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.len()
}

// Last returns up to n of the most recent spans, oldest first (n <= 0
// means every retained span).
func (l *SpanLog) Last(n int) []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.last(n)
}

// filter returns the retained spans keep accepts, oldest first.
func (l *SpanLog) filter(keep func(Span) bool) []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.filter(keep)
}

// ByTrace returns every retained span of the trace, oldest first.
func (l *SpanLog) ByTrace(trace SpanID) []Span {
	if trace == 0 {
		return nil
	}
	return l.filter(func(s Span) bool { return s.Trace == trace })
}

// BySeq returns every retained span stamped with the wave sequence
// number, oldest first — the cross-process join key when no trace ID is
// at hand.
func (l *SpanLog) BySeq(seq uint64) []Span {
	if seq == 0 {
		return nil
	}
	return l.filter(func(s Span) bool { return s.Seq == seq })
}

// FormatTraceHeader renders a SpanContext for the X-Dyntc-Trace header:
// "<trace>-<span>", both 16 hex digits.
func FormatTraceHeader(sc SpanContext) string {
	return sc.Trace.String() + "-" + sc.Span.String()
}

// ParseTraceHeader parses an X-Dyntc-Trace header value. A bare trace ID
// (no "-<span>") is accepted and yields a context with only the trace
// set. Returns the zero context for an empty or malformed value — a bad
// header degrades to "untraced", never to an error.
func ParseTraceHeader(v string) SpanContext {
	v = strings.TrimSpace(v)
	if v == "" {
		return SpanContext{}
	}
	var tracePart, spanPart string
	if i := strings.IndexByte(v, '-'); i >= 0 {
		tracePart, spanPart = v[:i], v[i+1:]
	} else {
		tracePart = v
	}
	trace, err := ParseSpanID(tracePart)
	if err != nil {
		return SpanContext{}
	}
	sc := SpanContext{Trace: trace}
	if spanPart != "" {
		if span, err := ParseSpanID(spanPart); err == nil {
			sc.Span = span
		}
	}
	return sc
}
