package main

// Observability wiring: one metrics registry per process (GET /metrics,
// Prometheus text format, zero external deps), a span log whose sampled
// engine.flush spans are the wave traces (GET /v1/spans), an opt-in
// access log, a structured slow-wave log and an optional pprof listener.
// Both roles share all of it; the per-layer instrument bundles live with
// their layers (internal/obs, internal/engine, internal/replog,
// internal/query) — this file only composes them and adds the
// cross-layer gauges (lag, applied sequence) that need to see engines,
// logs and the poll loop side by side.

import (
	"errors"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// Anomaly detector signal names: each is one windowed latency stream the
// flight recorder watches. Leader processes feed the first three; the
// replication-lag pair is follower-side.
const (
	sigEngineFlush  = "engine.flush"
	sigWALAppend    = "wal.append"
	sigQueryJoin    = "query.join"
	sigReplicaFetch = "replica.fetch"
	sigReplicaApply = "replica.apply"
)

// hotRanks is the fixed label cardinality of the dyntc_hot_tree_* gauge
// families: the top hotRanks sketch entries per dimension export, however
// many trees the sketch tracks.
const hotRanks = 8

// obsBundle is the process-wide observability state: the registry every
// layer's families live on, plus the instrument bundles the serving code
// feeds directly (snapshots, re-bootstraps) and the span log every layer
// exports distributed-trace spans into.
type obsBundle struct {
	reg    *dyntc.MetricsRegistry
	engine *dyntc.EngineMetrics
	replog *replog.Metrics
	query  *dyntc.QueryMetrics

	// spans is the process-wide span exporter: engines (via
	// BatchOptions.Spans), wave logs (via replog.Metrics.Spans), the
	// follower's replay loop and the HTTP ingest layer all record into it;
	// GET /v1/spans serves its ring.
	spans *dyntc.SpanLog

	// events is the lifecycle event journal: every layer's state changes
	// (promotions, fences, degraded transitions, WAL recovery, shed
	// bursts, anomalies) land here; GET /v1/events serves its ring and
	// per-type counts export as dyntc_events_total.
	events *dyntc.EventJournal
	// boost is the flight recorder's sampling override, shared by every
	// engine through BatchOptions.Boost; anomaly trips arm it.
	boost *dyntc.TraceBoost
	// anomaly is the flight recorder: streaming latency detectors that,
	// on a confirmed outlier, journal an anomaly event with a runtime
	// snapshot and arm the boost.
	anomaly *obs.Recorder
	// Per-tree hot-spot sketches (GET /v1/hot): wave cost in flush
	// nanoseconds, request counts, and shed counts.
	hotCost *obs.TopK
	hotReqs *obs.TopK
	hotShed *obs.TopK
	// slowWave, when positive, logs every flush at least this long
	// (-slow-wave).
	slowWave time.Duration

	// proc labels this process's spans, events and debug bundles.
	proc string
	// bundleExtra, set by the serving role's observe, adds its live stats
	// (engine aggregate or follower health) to GET /v1/debug/bundle.
	bundleExtra func() map[string]any

	// Snapshot traffic, both directions: leader compaction/GET encodes,
	// follower bootstrap downloads.
	snapshotBytes   *obs.Histogram
	snapshotSeconds *obs.Histogram
	// rebootstraps counts follower replicas rebuilt from a fresh snapshot
	// after falling behind a trimmed log or diverging on replay.
	rebootstraps *obs.Counter
	// promotions counts follower→leader failovers this process performed.
	promotions *obs.Counter
}

// obsConfig configures the process-wide observability state: the
// span/event JSONL mirrors (with size-based rotation for spans) and the
// slow-wave log threshold. Ring capacities, the hot-spot sketch width and
// the anomaly detector tuning are fixed at their internal/obs defaults;
// anomaly exists only so tests can trip the detectors quickly (its zero
// value means "defaults").
type obsConfig struct {
	proc         string
	spanPath     string
	spanMaxBytes int64
	spanKeep     int
	eventPath    string
	slowWave     time.Duration
	anomaly      obs.AnomalyConfig
}

// newObsBundle builds the registry and every process-level family. The
// engine histogram bundle, the span log, the event journal and the
// anomaly flight recorder are created here and passed into BatchOptions
// (engineHooks), so all trees share one set of instruments. cfg.proc
// labels this process's spans and events ("leader", "follower").
func newObsBundle(cfg obsConfig) (*obsBundle, error) {
	spans, err := dyntc.NewSpanLogRotating(0, cfg.proc, cfg.spanPath, cfg.spanMaxBytes, cfg.spanKeep)
	if err != nil {
		return nil, err
	}
	events, err := dyntc.NewEventJournal(0, cfg.proc, cfg.eventPath)
	if err != nil {
		spans.Close()
		return nil, err
	}
	reg := dyntc.NewMetricsRegistry()
	boost := &dyntc.TraceBoost{}
	b := &obsBundle{
		reg:      reg,
		engine:   dyntc.NewEngineMetrics(reg),
		replog:   replog.NewMetrics(reg),
		query:    dyntc.NewQueryMetrics(reg),
		spans:    spans,
		events:   events,
		boost:    boost,
		anomaly:  obs.NewRecorder(cfg.anomaly, events, boost),
		hotCost:  obs.NewTopK(0),
		hotReqs:  obs.NewTopK(0),
		hotShed:  obs.NewTopK(0),
		slowWave: cfg.slowWave,
		proc:     cfg.proc,
		snapshotBytes: reg.HistogramWith("dyntc_replog_snapshot_bytes",
			"size of one tree snapshot encode or download", obs.SizeBuckets, 1),
		snapshotSeconds: reg.Seconds("dyntc_replog_snapshot_seconds",
			"latency of one tree snapshot encode or download"),
		rebootstraps: reg.Counter("dyntc_replog_rebootstraps_total",
			"follower replicas rebuilt from a fresh snapshot (truncated log or replay divergence)"),
		promotions: reg.Counter("dyntc_failover_promotions_total",
			"follower-to-leader promotions performed by this process"),
	}
	// Every WAL append records the sealed→appended lag and its wal.append
	// span through the replog bundle.
	b.replog.Spans = spans
	// Per-type event counts (dyntc_events_total) ride the registry too.
	events.Observe(reg)
	// Hot-tree attribution exports at fixed cardinality: the top hotRanks
	// sketch entries per dimension, as (tree id, weight) gauge pairs.
	for _, dim := range []struct {
		name string
		t    *obs.TopK
	}{{"cost_ns", b.hotCost}, {"reqs", b.hotReqs}, {"shed", b.hotShed}} {
		t := dim.t
		for rank := 0; rank < hotRanks; rank++ {
			rank := rank
			reg.GaugeFunc("dyntc_hot_tree_id",
				"tree id at this rank of the hot-spot sketch (0 = unoccupied rank)",
				func() float64 {
					if items := t.Snapshot(); rank < len(items) {
						return float64(items[rank].Key)
					}
					return 0
				}, "dim", dim.name, "rank", strconv.Itoa(rank))
			reg.GaugeFunc("dyntc_hot_tree_weight",
				"estimated weight (dim units) of the tree at this rank of the hot-spot sketch",
				func() float64 {
					if items := t.Snapshot(); rank < len(items) {
						return float64(items[rank].Count)
					}
					return 0
				}, "dim", dim.name, "rank", strconv.Itoa(rank))
		}
	}
	reg.CounterFunc("dyntc_anomaly_trips_total",
		"anomaly detector trips (confirmed latency outliers) this process journaled",
		func() float64 { return float64(b.anomaly.Trips()) })
	reg.GaugeFunc("dyntc_anomaly_active",
		"1 while an anomaly trip's trace-sampling boost window is open, else 0",
		func() float64 {
			if b.anomaly.Active() {
				return 1
			}
			return 0
		})
	// Process health families (goroutines, heap, GC pauses, build info)
	// ride the same registry on leader and follower alike.
	dyntc.RegisterGoRuntime(reg)
	events.Emit(obs.EvProcessStart, "observability initialized", map[string]any{
		"pid": os.Getpid(), "go": runtime.Version(), "proc": cfg.proc,
	})
	return b, nil
}

// engineHooks wires the bundle's engine-facing callbacks into
// BatchOptions: the lifecycle journal, the anomaly boost, and the
// per-flush / per-shed sinks feeding hot-spot attribution, the
// flush-latency anomaly detector and the slow-wave log. Nil-safe, so
// servers built without observability skip it all.
func (b *obsBundle) engineHooks(opts *dyntc.BatchOptions) {
	if b == nil {
		return
	}
	opts.Events = b.events
	opts.Boost = b.boost
	opts.FlushSink = b.flushDone
	opts.ShedSink = b.shedDone
}

// flushDone is the BatchOptions.FlushSink: every flush charges its wall
// time and request count to its tree's hot-spot sketches and feeds the
// flush-latency anomaly detector; a flush at least -slow-wave long is
// also logged.
func (b *obsBundle) flushDone(t dyntc.WaveTraceRecord) {
	b.hotCost.Add(t.Tree, uint64(t.Flush))
	b.hotReqs.Add(t.Tree, uint64(t.Reqs))
	b.anomaly.Observe(sigEngineFlush, t.Flush)
	if b.slowWave > 0 && t.Flush >= int64(b.slowWave) {
		logSlowWave(t)
	}
}

// shedDone is the BatchOptions.ShedSink: shed requests are attributed to
// the tree that shed them, so /v1/hot answers "who is being turned away".
func (b *obsBundle) shedDone(tree uint64, n int) {
	b.hotShed.Add(tree, uint64(n))
}

// journal returns the bundle's event journal, nil-safely: every Journal
// method is itself nil-safe, so call sites can emit unconditionally.
func (b *obsBundle) journal() *dyntc.EventJournal {
	if b == nil {
		return nil
	}
	return b.events
}

// recorder returns the anomaly flight recorder, nil-safely.
func (b *obsBundle) recorder() *obs.Recorder {
	if b == nil {
		return nil
	}
	return b.anomaly
}

// snapshotDone feeds the snapshot instruments; safe on a nil bundle so
// test servers without observability skip it transparently.
func (b *obsBundle) snapshotDone(bytes int, d time.Duration) {
	if b == nil {
		return
	}
	b.snapshotBytes.Observe(int64(bytes))
	b.snapshotSeconds.Observe(int64(d))
}

// handleMetrics renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (b *obsBundle) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = b.reg.WriteTo(w)
}

// lastN parses the ?n= cap shared by /v1/spans and /v1/events: absent
// or 0 means every retained record, a negative or non-numeric n answers
// 400 (ok=false, the error already written).
func lastN(w http.ResponseWriter, q url.Values) (n int, ok bool) {
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeErr(w, apiError{http.StatusBadRequest, "bad n"})
			return 0, false
		}
		n = v
	}
	return n, true
}

// handleSpans serves the span log. ?trace=<16 hex> returns one
// distributed trace's spans, ?seq=N returns the spans of wave sequence N
// (the cross-process join key), ?n=N the most recent N (lastN); with no
// filter, everything retained. Always oldest first. Sampled flushes are
// the engine.flush spans, carrying the flush's waves and heal cost.
func (b *obsBundle) handleSpans(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var spans []dyntc.SpanRecord
	switch {
	case q.Get("trace") != "":
		id, err := obs.ParseSpanID(q.Get("trace"))
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad trace id"})
			return
		}
		spans = b.spans.ByTrace(id)
	case q.Get("seq") != "":
		seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad seq"})
			return
		}
		spans = b.spans.BySeq(seq)
	default:
		n, ok := lastN(w, q)
		if !ok {
			return
		}
		spans = b.spans.Last(n)
	}
	if spans == nil {
		spans = []dyntc.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total": b.spans.Total(),
		"spans": spans,
	})
}

// handleEvents serves the lifecycle event journal, oldest first.
// ?type=X filters to one event type (a trailing dot matches the prefix:
// type=anomaly. returns every anomaly signal), ?since=SEQ returns events
// after that journal sequence number, ?n=N caps the result to the most
// recent N (lastN).
func (b *obsBundle) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if s := q.Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad since"})
			return
		}
		since = v
	}
	n, ok := lastN(w, q)
	if !ok {
		return
	}
	events := b.events.Query(q.Get("type"), since, n)
	if events == nil {
		events = []dyntc.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  b.events.Total(),
		"events": events,
	})
}

// hot renders per-tree hot-spot attribution: which trees are consuming
// wave execution time, which are receiving the requests, and which are
// shedding. Each dimension carries the total weight observed and the
// ranked entries, each bracketing the true weight within its err.
func (b *obsBundle) hot() map[string]any {
	dim := func(t *obs.TopK) map[string]any {
		items := t.Snapshot()
		if items == nil {
			items = []obs.TopKItem{}
		}
		return map[string]any{"total": t.Total(), "trees": items}
	}
	return map[string]any{"cost": dim(b.hotCost), "reqs": dim(b.hotReqs), "shed": dim(b.hotShed)}
}

// handleHot serves the hot-spot attribution (hot).
func (b *obsBundle) handleHot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, b.hot())
}

// handleBundle serves the one-shot debug bundle: everything a first
// responder pastes into an incident channel — build and process info,
// the full metrics text, recent lifecycle events, recent spans (sampled
// flushes among them), hot-spot attribution, the flight recorder's state,
// and the serving role's live stats — as one JSON document.
func (b *obsBundle) handleBundle(w http.ResponseWriter, r *http.Request) {
	var metrics strings.Builder
	_, _ = b.reg.WriteTo(&metrics)
	bundle := map[string]any{
		"generated_at": time.Now().UTC().Format(time.RFC3339Nano),
		"proc":         b.proc,
		"pid":          os.Getpid(),
		"go":           runtime.Version(),
		"goroutines":   runtime.NumGoroutine(),
		"args":         os.Args,
		"events":       b.events.Last(256),
		"spans":        b.spans.Last(256),
		"hot":          b.hot(),
		"anomaly": map[string]any{
			"trips":          b.anomaly.Trips(),
			"active":         b.anomaly.Active(),
			"boost_deadline": b.boost.Deadline(),
		},
		"metrics": metrics.String(),
	}
	if b.bundleExtra != nil {
		for k, v := range b.bundleExtra() {
			bundle[k] = v
		}
	}
	writeJSON(w, http.StatusOK, bundle)
}

// statsCache memoizes one forest-wide stats aggregation per TTL: a
// scrape reads a dozen engine counter funcs, and each would otherwise
// walk every engine's stats independently.
type statsCache struct {
	fn  func() dyntc.EngineStats
	ttl time.Duration

	mu sync.Mutex
	at time.Time
	st dyntc.EngineStats
}

func (c *statsCache) get() dyntc.EngineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at.IsZero() || time.Since(c.at) > c.ttl {
		c.st = c.fn()
		c.at = time.Now()
	}
	return c.st
}

// observe registers the server's cross-layer families once, for both
// roles: engine counters over a cached forest aggregate and the
// replication gauges, whose closures read the server's current role (a
// leader pairs engines with their wave logs, a follower with its leader's
// last observed log position).
func (s *server) observe(b *obsBundle) {
	s.obs = b
	cache := &statsCache{fn: s.forest.Stats, ttl: 250 * time.Millisecond}
	dyntc.RegisterEngineStats(b.reg, cache.get)
	// Anomaly events carry a snapshot of the engine aggregate at trip
	// time, plus the poll loop's health while following; the debug bundle
	// carries the same plus role and epoch.
	b.anomaly.SetSnapshot(func() map[string]any {
		st := cache.get()
		m := map[string]any{
			"queue_depth":   st.QueueDepth,
			"flushes":       st.Flushes,
			"waves":         st.Waves,
			"shed":          st.Shed,
			"cur_max_batch": st.CurMaxBatch,
			"flush_p50_us":  st.FlushP50US,
			"flush_p99_us":  st.FlushP99US,
		}
		if f := s.following.Load(); f != nil {
			f.healthFields(m)
		}
		return m
	})
	b.bundleExtra = func() map[string]any {
		m := map[string]any{
			"role":            "leader",
			"trees":           s.forest.Len(),
			"engine":          cache.get(),
			"epoch":           s.maxEpoch(),
			"fenced_at_epoch": s.fenced.Load(),
		}
		if f := s.following.Load(); f != nil {
			m["role"] = "follower"
			m["leader"] = f.leader
			f.healthFields(m)
		}
		return m
	}
	s.forest.SetQueryMetrics(b.query)
	b.reg.GaugeFunc("dyntc_replog_applied_seq",
		"sum over trees of the wave change-log position (leader: last logged wave, follower: last applied wave)",
		func() float64 {
			var sum float64
			if s.following.Load() != nil {
				s.forest.Each(func(_ dyntc.TreeID, en *dyntc.Engine) { sum += float64(en.AppliedSeq()) })
				return sum
			}
			s.logs.Range(func(_, v any) bool {
				sum += float64(v.(*dyntc.WaveLog).LastSeq())
				return true
			})
			return sum
		})
	b.reg.GaugeFunc("dyntc_replog_lag",
		"max waves behind: leader reports applied-but-unlogged (normally 0), follower reports leader_seq - applied_seq",
		func() float64 {
			f := s.following.Load()
			var max float64
			s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
				var d float64
				if f != nil {
					d = float64(f.treeHealth(id, en.AppliedSeq()).Lag)
				} else if v, ok := s.logs.Load(id); ok {
					d = float64(en.AppliedSeq()) - float64(v.(*dyntc.WaveLog).LastSeq())
				}
				if d > max {
					max = d
				}
			})
			return max
		})
	b.reg.GaugeFunc("dyntc_epoch",
		"highest leadership epoch across served trees (follower: trusted term)",
		func() float64 { return float64(s.maxEpoch()) })
	b.reg.GaugeFunc("dyntc_fenced_epoch",
		"newer epoch a demoted leader fenced itself read-only at (0 = serving writes)",
		func() float64 { return float64(s.fenced.Load()) })
	b.reg.GaugeFunc("dyntc_degraded",
		"1 when serving in degraded mode (follower cut off from its leader), else 0",
		func() float64 {
			if f := s.following.Load(); f != nil {
				if degraded, _, _, _ := f.health(); degraded {
					return 1
				}
			}
			return 0
		})
	b.reg.GaugeFunc("dyntc_follower_backoff_seconds",
		"current leader-poll backoff after consecutive failed rounds (0 = healthy cadence)",
		func() float64 {
			if f := s.following.Load(); f != nil {
				_, _, _, backoff := f.health()
				return backoff.Seconds()
			}
			return 0
		})
}

// --- access log (opt-in, -access-log) ---

// statusRecorder captures the status code and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// withAccessLog logs one structured line per request — method, path,
// status, bytes written, duration, and the distributed trace the request
// joined (when it carried or was assigned one).
func withAccessLog(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur_us", time.Since(t0).Microseconds(),
		}
		// The handler echoes X-Dyntc-Trace on traced requests; correlate
		// the access line with the trace it belongs to.
		if tr := rec.Header().Get("X-Dyntc-Trace"); tr != "" {
			attrs = append(attrs, "trace", tr)
		}
		slog.Info("access", attrs...)
	})
}

// --- slow-wave log (-slow-wave) ---

// logSlowWave logs one structured line per wave flush that crossed the
// -slow-wave threshold (flushDone), carrying the per-stage
// breakdown and, when the flush was span-sampled, the trace ID to look
// the full span tree up with (/v1/spans?trace=).
func logSlowWave(t dyntc.WaveTraceRecord) {
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

// --- pprof (-pprof-addr) ---

// startPprof serves net/http/pprof on its own listener, so profiling
// stays off the serving mux (and off its access log and any fronting
// load balancer).
func startPprof(addr string) {
	go func() {
		srv := &http.Server{
			Addr: addr,
			// net/http/pprof registers on the default mux; nothing else in
			// this process does.
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		slog.Info("pprof listening", "addr", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("pprof server failed", "err", err)
		}
	}()
}
