// The observability hub: the one handle a process threads through its
// layers. It owns the metrics registry, the span log and its sampling
// period, the event journal, the anomaly flight recorder and its trace
// boost, and the per-tree hot-spot sketches. Each layer takes the hub
// through one option or setter and registers its own instrument families
// on the hub's registry when it is built; the engine asks the hub whether
// a flush is span-sampled, hands it every flush record and reports sheds
// to it.
package obs

import (
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"time"
)

// HubConfig configures a Hub. The zero value is an in-memory hub: no
// JSONL mirrors, every 16th flush span-sampled, no slow-wave log and the
// default anomaly detector tuning.
type HubConfig struct {
	// Proc labels this process's spans and events in merged traces
	// ("leader", "follower").
	Proc string
	// TraceSample is the flush span-sampling period (default 16; 1
	// samples every flush).
	TraceSample int
	// SpanPath, when set, mirrors every span to this append-only JSONL
	// file, rotated before it would exceed SpanMaxBytes (0 = never),
	// keeping SpanKeep rotated generations.
	SpanPath     string
	SpanMaxBytes int64
	SpanKeep     int
	// EventPath, when set, mirrors every lifecycle event to this
	// append-only JSONL file.
	EventPath string
	// SlowWave, when positive, logs every flush at least this long as a
	// structured "slow wave" line.
	SlowWave time.Duration
	// Anomaly tunes the flight recorder's detectors (zero = defaults).
	Anomaly AnomalyConfig
}

// defaultTraceSample is the flush span-sampling period when
// HubConfig.TraceSample is not positive.
const defaultTraceSample = 16

// SigEngineFlush is the anomaly signal of flush wall time, fed by every
// flush record the engine hands the hub; its trips journal as
// EvAnomaly + "." + SigEngineFlush.
const SigEngineFlush = "engine.flush"

// hotRanks is the fixed label cardinality of the dyntc_hot_tree_* gauge
// families: the top hotRanks sketch entries per dimension export, however
// many trees the sketch tracks.
const hotRanks = 8

// Hub is a process's observability state. All methods are safe for
// concurrent use.
type Hub struct {
	proc     string
	reg      *Registry
	spans    *SpanLog
	events   *Journal
	sample   uint64
	boost    TraceBoost
	anomaly  *Recorder
	slowWave time.Duration

	// Per-tree hot-spot sketches: wave cost in flush nanoseconds, request
	// counts and shed counts.
	hotCost *TopK
	hotReqs *TopK
	hotShed *TopK
}

// NewHub builds a hub: a fresh registry carrying the journal's per-type
// event counts, the hot-tree and anomaly families and the Go runtime
// families, then journals process start. It fails only when a JSONL
// mirror cannot be opened.
func NewHub(cfg HubConfig) (*Hub, error) {
	spans, err := NewSpanLog(0, cfg.Proc, cfg.SpanPath, cfg.SpanMaxBytes, cfg.SpanKeep)
	if err != nil {
		return nil, err
	}
	events, err := NewJournal(0, cfg.Proc, cfg.EventPath)
	if err != nil {
		spans.Close()
		return nil, err
	}
	h := &Hub{
		proc:     cfg.Proc,
		reg:      NewRegistry(),
		spans:    spans,
		events:   events,
		sample:   defaultTraceSample,
		slowWave: cfg.SlowWave,
		hotCost:  NewTopK(0),
		hotReqs:  NewTopK(0),
		hotShed:  NewTopK(0),
	}
	if cfg.TraceSample > 0 {
		h.sample = uint64(cfg.TraceSample)
	}
	h.anomaly = NewRecorder(cfg.Anomaly, events, &h.boost)
	events.Observe(h.reg)
	h.registerFamilies()
	RegisterGoRuntime(h.reg)
	events.Emit(EvProcessStart, "observability initialized", map[string]any{
		"pid": os.Getpid(), "go": runtime.Version(), "proc": cfg.Proc,
	})
	return h, nil
}

// registerFamilies exports the hub's own state: hot-tree attribution at
// fixed cardinality (the top hotRanks sketch entries per dimension, as
// tree id and weight gauge pairs) and the flight recorder's trip count
// and active bit.
func (h *Hub) registerFamilies() {
	for _, dim := range []struct {
		name string
		t    *TopK
	}{{"cost_ns", h.hotCost}, {"reqs", h.hotReqs}, {"shed", h.hotShed}} {
		t := dim.t
		for rank := 0; rank < hotRanks; rank++ {
			rank := rank
			h.reg.GaugeFunc("dyntc_hot_tree_id",
				"tree id at this rank of the hot-spot sketch (0 = unoccupied rank)",
				func() float64 {
					if items := t.Snapshot(); rank < len(items) {
						return float64(items[rank].Key)
					}
					return 0
				}, "dim", dim.name, "rank", strconv.Itoa(rank))
			h.reg.GaugeFunc("dyntc_hot_tree_weight",
				"estimated weight (dim units) of the tree at this rank of the hot-spot sketch",
				func() float64 {
					if items := t.Snapshot(); rank < len(items) {
						return float64(items[rank].Count)
					}
					return 0
				}, "dim", dim.name, "rank", strconv.Itoa(rank))
		}
	}
	h.reg.CounterFunc("dyntc_anomaly_trips_total",
		"anomaly detector trips (confirmed latency outliers) this process journaled",
		func() float64 { return float64(h.anomaly.Trips()) })
	h.reg.GaugeFunc("dyntc_anomaly_active",
		"1 while an anomaly trip's trace-sampling boost window is open, else 0",
		func() float64 {
			if h.anomaly.Active() {
				return 1
			}
			return 0
		})
}

// Proc returns the process label stamped on spans and events.
func (h *Hub) Proc() string { return h.proc }

// Registry returns the metrics registry every layer registers on.
func (h *Hub) Registry() *Registry { return h.reg }

// Spans returns the span log every layer records into.
func (h *Hub) Spans() *SpanLog { return h.spans }

// Events returns the lifecycle event journal every layer emits into.
func (h *Hub) Events() *Journal { return h.events }

// Anomaly returns the flight recorder; layers feed it latency samples.
func (h *Hub) Anomaly() *Recorder { return h.anomaly }

// Boost returns the flight recorder's sampling override.
func (h *Hub) Boost() *TraceBoost { return &h.boost }

// Sampled reports whether the flush numbered flushSeq, starting at
// nowNano, is span-sampled by cadence or by an active anomaly boost: one
// modulo and one atomic load, allocation-free. A flush carrying a traced
// request is sampled regardless; the engine checks that itself.
func (h *Hub) Sampled(flushSeq uint64, nowNano int64) bool {
	return flushSeq%h.sample == 0 || h.boost.Active(nowNano)
}

// FlushDone consumes one flush record on the executor: its wall time and
// request count are charged to the tree's hot-spot sketches, its wall
// time feeds the flush-latency anomaly detector, and a flush at least
// SlowWave long is logged.
func (h *Hub) FlushDone(t WaveTrace) {
	h.hotCost.Add(t.Tree, uint64(t.Flush))
	h.hotReqs.Add(t.Tree, uint64(t.Reqs))
	h.anomaly.Observe(SigEngineFlush, t.Flush)
	if h.slowWave > 0 && t.Flush >= int64(h.slowWave) {
		logSlowWave(t)
	}
}

// Shed attributes n load-shed requests to tree, so the hot-spot sketch
// answers "who is being turned away".
func (h *Hub) Shed(tree uint64, n int) { h.hotShed.Add(tree, uint64(n)) }

// Hot renders per-tree hot-spot attribution: which trees are consuming
// wave execution time, which are receiving the requests, and which are
// shedding. Each dimension carries the total weight observed and the
// ranked entries, each bracketing the true weight within its err.
func (h *Hub) Hot() map[string]any {
	dim := func(t *TopK) map[string]any {
		items := t.Snapshot()
		if items == nil {
			items = []TopKItem{}
		}
		return map[string]any{"total": t.Total(), "trees": items}
	}
	return map[string]any{"cost": dim(h.hotCost), "reqs": dim(h.hotReqs), "shed": dim(h.hotShed)}
}

// Close flushes and closes the span and event JSONL mirrors, if any.
func (h *Hub) Close() error {
	err := h.spans.Close()
	if jerr := h.events.Close(); err == nil {
		err = jerr
	}
	return err
}

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
