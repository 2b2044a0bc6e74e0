package dyntc

import (
	"dyntc/internal/engine"
	"dyntc/internal/obs"
	"dyntc/internal/query"
)

// This file is the public face of internal/obs: the metrics registry,
// instrument bundles and wave tracing that servers (cmd/dyntcd) attach
// through BatchOptions. Everything
// here is optional — a nil registry/bundle costs the engine one boolean
// check per flush.

// MetricsRegistry is a process-wide metrics registry: lock-cheap atomic
// counters, gauges and fixed-bucket histograms, rendered in Prometheus
// text exposition format by WriteTo. Dependency-free.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// EngineMetrics is the engine-layer instrument bundle: wave flush
// latency, coalesce wait and per-stage PRAM sub-batch histograms. One
// bundle is shared by every engine of a process (per-tree label
// cardinality would not scale to a big forest); pass it through
// BatchOptions.Metrics.
type EngineMetrics = engine.Obs

// NewEngineMetrics registers the engine histogram families on r and
// returns the bundle to pass as BatchOptions.Metrics.
func NewEngineMetrics(r *MetricsRegistry) *EngineMetrics { return engine.NewObs(r) }

// WaveTraceRecord is one flush's lifecycle breakdown: request and wave
// counts, coalesce wait, per-stage nanoseconds and heal cost. Every
// flush hands one to the BatchOptions.FlushSink hook; a span-sampled
// flush also records it as its engine.flush span.
type WaveTraceRecord = obs.WaveTrace

// SpanID is a 64-bit trace or span identifier, rendered as 16 hex
// digits in JSON and in the X-Dyntc-Trace header.
type SpanID = obs.SpanID

// TraceContext is the propagated half of a distributed trace: the trace
// ID plus the parent span ID. The zero value means "untraced" and costs
// nothing to carry. Servers derive it from the X-Dyntc-Trace header
// (ParseTraceHeader) and pass it to Engine.Traced.
type TraceContext = obs.SpanContext

// SpanRecord is one finished span of a distributed wave-lifecycle trace.
type SpanRecord = obs.Span

// SpanLog is the span exporter: a bounded ring (served at GET /v1/spans)
// plus an optional append-only JSONL file, shared by every engine and
// log it is attached to (BatchOptions.Spans, WaveLog metrics).
type SpanLog = obs.SpanLog

// NewSpanLog creates a span log retaining capacity spans (a default when
// <= 0). proc labels the recording process ("leader", "follower") in
// merged traces; a non-empty path mirrors spans to a JSONL file.
func NewSpanLog(capacity int, proc, path string) (*SpanLog, error) {
	return obs.NewSpanLog(capacity, proc, path)
}

// NewSpanLogRotating is NewSpanLog with size-based rotation of the JSONL
// mirror: when the current file would exceed maxBytes the log rotates it
// to path.1 (shifting older generations up) and keeps at most keep
// rotated files. maxBytes <= 0 disables rotation.
func NewSpanLogRotating(capacity int, proc, path string, maxBytes int64, keep int) (*SpanLog, error) {
	return obs.NewSpanLogRotating(capacity, proc, path, maxBytes, keep)
}

// EventJournal is the lifecycle event journal: a bounded in-memory ring
// of structured events (promotions, epoch adoptions, degraded-mode
// transitions, WAL recovery, shed bursts, batch-cap shifts, anomalies)
// plus an optional JSONL sink. Shared by every layer of a process and
// served at GET /v1/events; per-type counts export as dyntc_events_total.
type EventJournal = obs.Journal

// Event is one journal entry: a monotonic sequence number, wall-clock
// nanoseconds, a dotted type from the event taxonomy, the recording
// process, an optional tree id and free-form fields.
type Event = obs.Event

// NewEventJournal creates a journal retaining capacity events (a default
// when <= 0). proc labels the recording process; a non-empty path mirrors
// events to a JSONL file.
func NewEventJournal(capacity int, proc, path string) (*EventJournal, error) {
	return obs.NewJournal(capacity, proc, path)
}

// TraceBoost is the flight recorder's sampling override: a single atomic
// deadline that, while in the future, makes every flush span-sampled
// regardless of cadence. Trigger extends it; it decays by doing nothing.
// The inactive check is one atomic load.
type TraceBoost = obs.TraceBoost

// NewTraceID returns a fresh process-unique trace ID.
func NewTraceID() SpanID { return obs.NewTraceID() }

// NewSpanID returns a fresh process-unique span ID.
func NewSpanID() SpanID { return obs.NewSpanID() }

// WaveSpanID is the deterministic span ID of the wave sealed as
// (epoch, seq): leader and follower compute it independently, which is
// what stitches one trace across the process boundary.
func WaveSpanID(epoch, seq uint64) SpanID { return obs.WaveSpanID(epoch, seq) }

// ParseTraceHeader parses an X-Dyntc-Trace header value
// ("<trace>-<span>" or a bare trace ID, 16 hex digits each); malformed
// values degrade to the zero (untraced) context.
func ParseTraceHeader(v string) TraceContext { return obs.ParseTraceHeader(v) }

// FormatTraceHeader renders a TraceContext for the X-Dyntc-Trace header.
func FormatTraceHeader(sc TraceContext) string { return obs.FormatTraceHeader(sc) }

// RegisterGoRuntime registers Go runtime health families on r: goroutine
// count, heap bytes, GC cycle count, a GC pause histogram, and a
// dyntc_build_info gauge carrying version and Go toolchain labels.
func RegisterGoRuntime(r *MetricsRegistry) { obs.RegisterGoRuntime(r) }

// QueryMetrics is the cross-tree query engine's instrument bundle:
// query count, scatter width and join latency. Attach it to a Forest
// with SetQueryMetrics.
type QueryMetrics = query.Metrics

// NewQueryMetrics registers the query families on r.
func NewQueryMetrics(r *MetricsRegistry) *QueryMetrics { return query.NewMetrics(r) }

// SetQueryMetrics attaches (nil detaches) the query instrument bundle
// to the forest's cross-tree query planner. Swappable at runtime.
func (f *Forest) SetQueryMetrics(m *QueryMetrics) { f.planner.SetMetrics(m) }

// RegisterEngineStats registers the engine counter and gauge families
// (requests by kind, flushes, waves, errors, queue depth, applied
// sequence, adaptive batch cap, windowed flush percentiles) on r as
// scrape-time functions over stats — typically a cached Forest.Stats
// snapshot, so one scrape pays one aggregation. Histogram families come
// from NewEngineMetrics; the two compose into the full engine scrape.
func RegisterEngineStats(r *MetricsRegistry, stats func() EngineStats) {
	engine.RegisterStatsFuncs(r, stats)
}
