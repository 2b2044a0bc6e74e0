// The observability hub: the one handle a process threads through its
// layers. It owns the metrics registry, the span log and its sampling
// period, the event journal and the slow-wave threshold. Each layer takes
// the hub through one option or setter and registers its own instrument
// families on the hub's registry when it is built; the engine asks the
// hub whether a flush is span-sampled and hands it every flush record.
package obs

import (
	"log/slog"
	"os"
	"runtime"
	"time"
)

// HubConfig configures a Hub. The zero value is an in-memory hub: no
// event-log mirror, every 16th flush span-sampled and no slow-wave log.
type HubConfig struct {
	// Proc labels this process's spans and events in merged traces
	// ("leader", "follower").
	Proc string
	// TraceSample is the flush span-sampling period (default 16; 1
	// samples every flush).
	TraceSample int
	// EventPath, when set, mirrors every lifecycle event to this
	// append-only JSONL file.
	EventPath string
	// SlowWave, when positive, logs every flush at least this long as a
	// structured "slow wave" line.
	SlowWave time.Duration
}

// defaultTraceSample is the flush span-sampling period when
// HubConfig.TraceSample is not positive.
const defaultTraceSample = 16

// Hub is a process's observability state. All methods are safe for
// concurrent use.
type Hub struct {
	proc     string
	reg      *Registry
	spans    *SpanLog
	events   *Journal
	sample   uint64
	slowWave time.Duration
}

// NewHub builds a hub: a fresh registry carrying the journal's per-type
// event counts and the Go runtime families, then journals process start.
// It fails only when the event-log mirror cannot be opened.
func NewHub(cfg HubConfig) (*Hub, error) {
	events, err := NewJournal(0, cfg.Proc, cfg.EventPath)
	if err != nil {
		return nil, err
	}
	h := &Hub{
		proc:     cfg.Proc,
		reg:      NewRegistry(),
		spans:    NewSpanLog(0, cfg.Proc),
		events:   events,
		sample:   defaultTraceSample,
		slowWave: cfg.SlowWave,
	}
	if cfg.TraceSample > 0 {
		h.sample = uint64(cfg.TraceSample)
	}
	events.Observe(h.reg)
	RegisterGoRuntime(h.reg)
	events.Emit(EvProcessStart, "observability initialized", map[string]any{
		"pid": os.Getpid(), "go": runtime.Version(), "proc": cfg.Proc,
	})
	return h, nil
}

// Proc returns the process label stamped on spans and events.
func (h *Hub) Proc() string { return h.proc }

// Registry returns the metrics registry every layer registers on.
func (h *Hub) Registry() *Registry { return h.reg }

// Spans returns the span log every layer records into.
func (h *Hub) Spans() *SpanLog { return h.spans }

// Events returns the lifecycle event journal every layer emits into.
func (h *Hub) Events() *Journal { return h.events }

// Sampled reports whether the flush numbered flushSeq is span-sampled by
// cadence: one modulo, allocation-free. A flush carrying a traced request
// is sampled regardless; the engine checks that itself.
func (h *Hub) Sampled(flushSeq uint64) bool { return flushSeq%h.sample == 0 }

// FlushDone consumes one flush record on the executor: a flush at least
// SlowWave long is logged.
func (h *Hub) FlushDone(t WaveTrace) {
	if h.slowWave > 0 && t.Flush >= int64(h.slowWave) {
		logSlowWave(t)
	}
}

// Close closes the event-log mirror, if any.
func (h *Hub) Close() error { return h.events.Close() }

// logSlowWave logs one structured line per flush that crossed the
// slow-wave threshold, carrying the per-stage breakdown and, when the
// flush was span-sampled, the trace ID to look the full span tree up
// with (/v1/spans?trace=).
func logSlowWave(t WaveTrace) {
	attrs := []any{
		"tree", t.Tree,
		"seq", t.Seq,
		"epoch", t.Epoch,
		"reqs", t.Reqs,
		"waves", t.Waves,
		"coalesce_ns", t.Coalesce,
		"flush_ns", t.Flush,
		"grow_ns", t.Grow,
		"collapse_ns", t.Collapse,
		"set_leaf_ns", t.SetLeaf,
		"set_op_ns", t.SetOp,
		"seal_ns", t.Seal,
		"value_ns", t.Value,
		"barrier_ns", t.Barrier,
		"heal_records", t.HealRecords,
		"resims", t.Resims,
		"trace_records", t.TraceRecords,
	}
	if t.ResimReason != "" {
		attrs = append(attrs, "resim_reason", t.ResimReason)
	}
	if t.TraceID != 0 {
		attrs = append(attrs, "trace", t.TraceID.String())
	}
	slog.Warn("slow wave", attrs...)
}
