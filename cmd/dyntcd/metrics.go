package main

// Observability wiring: the server's hub (dyntc.Obs) owns the metrics
// registry, the span log whose sampled engine.flush spans are the wave
// traces, and the event journal. This file serves them (GET /metrics in
// Prometheus text format, /v1/spans, /v1/events, /v1/debug/bundle), registers
// the serving layer's own families and the cross-layer gauges (lag,
// applied sequence) that need to see engines, logs and the poll loop side
// by side, and adds an opt-in access log and an optional pprof listener.
// Both roles share all of it; the per-layer instrument bundles live with
// their layers (internal/engine, internal/replog, internal/query).

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
	"dyntc/internal/engine"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// instruments are the serving layer's own families, registered on the
// hub's registry by observe.
type instruments struct {
	// repl holds the replication-lag stage histograms; the poll loop
	// feeds the two follower-side stages.
	repl *replog.Metrics
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

// snapshotDone feeds the snapshot instruments.
func (s *server) snapshotDone(bytes int, d time.Duration) {
	s.inst.snapshotBytes.Observe(int64(bytes))
	s.inst.snapshotSeconds.Observe(int64(d))
}

// handleMetrics renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.obs.Registry().WriteTo(w)
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
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	log := s.obs.Spans()
	var spans []obs.Span
	switch {
	case q.Get("trace") != "":
		id, err := obs.ParseSpanID(q.Get("trace"))
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad trace id"})
			return
		}
		spans = log.ByTrace(id)
	case q.Get("seq") != "":
		seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad seq"})
			return
		}
		spans = log.BySeq(seq)
	default:
		n, ok := lastN(w, q)
		if !ok {
			return
		}
		spans = log.Last(n)
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total": log.Total(),
		"spans": spans,
	})
}

// handleEvents serves the lifecycle event journal, oldest first.
// ?type=X filters to one event type (a trailing dot matches the prefix:
// type=follower.degraded. returns both edges), ?since=SEQ returns events
// after that journal sequence number, ?n=N caps the result to the most
// recent N (lastN).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
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
	journal := s.obs.Events()
	events := journal.Query(q.Get("type"), since, n)
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  journal.Total(),
		"events": events,
	})
}

// handleBundle serves the one-shot debug bundle: everything a first
// responder pastes into an incident channel — build and process info,
// the full metrics text, recent lifecycle events, recent spans (sampled
// flushes among them) and the serving role's live stats (engine
// aggregate, or follower health) — as one JSON document.
func (s *server) handleBundle(w http.ResponseWriter, r *http.Request) {
	var metrics strings.Builder
	_, _ = s.obs.Registry().WriteTo(&metrics)
	bundle := map[string]any{
		"generated_at":    time.Now().UTC().Format(time.RFC3339Nano),
		"proc":            s.obs.Proc(),
		"pid":             os.Getpid(),
		"go":              runtime.Version(),
		"goroutines":      runtime.NumGoroutine(),
		"args":            os.Args,
		"events":          s.obs.Events().Last(256),
		"spans":           s.obs.Spans().Last(256),
		"metrics":         metrics.String(),
		"role":            "leader",
		"trees":           s.forest.Len(),
		"engine":          s.stats.get(),
		"epoch":           s.maxEpoch(),
		"fenced_at_epoch": s.fenced.Load(),
	}
	if f := s.following.Load(); f != nil {
		bundle["role"] = "follower"
		bundle["leader"] = f.leader
		f.healthFields(bundle)
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

// observe registers the serving layer's families on the hub's registry
// once, for both roles: snapshot and failover instruments, the
// replication-lag stages, engine counters over a cached forest aggregate
// and the replication gauges, whose closures read the server's current
// role (a leader pairs engines with their wave logs, a follower with its
// leader's last observed log position).
func (s *server) observe() {
	reg := s.obs.Registry()
	s.inst = instruments{
		repl: replog.NewMetrics(reg),
		snapshotBytes: reg.HistogramWith("dyntc_replog_snapshot_bytes",
			"size of one tree snapshot encode or download", obs.SizeBuckets, 1),
		snapshotSeconds: reg.Seconds("dyntc_replog_snapshot_seconds",
			"latency of one tree snapshot encode or download"),
		rebootstraps: reg.Counter("dyntc_replog_rebootstraps_total",
			"follower replicas rebuilt from a fresh snapshot (truncated log or replay divergence)"),
		promotions: reg.Counter("dyntc_failover_promotions_total",
			"follower-to-leader promotions performed by this process"),
	}
	s.stats = &statsCache{fn: s.forest.Stats, ttl: 250 * time.Millisecond}
	engine.RegisterStatsFuncs(reg, s.stats.get)
	reg.GaugeFunc("dyntc_replog_applied_seq",
		"sum over trees of the wave change-log position (leader: last logged wave, follower: last applied wave)",
		func() float64 {
			var sum float64
			if s.following.Load() != nil {
				s.forest.Each(func(_ dyntc.TreeID, en *dyntc.Engine) { sum += float64(en.AppliedSeq()) })
				return sum
			}
			s.store.trees.Range(func(_, v any) bool {
				sum += float64(v.(*entry).log.LastSeq())
				return true
			})
			return sum
		})
	reg.GaugeFunc("dyntc_replog_lag",
		"max waves behind: leader reports applied-but-unlogged (normally 0), follower reports leader_seq - applied_seq",
		func() float64 {
			f := s.following.Load()
			var max float64
			s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
				var d float64
				if f != nil {
					d = float64(f.treeHealth(id, en.AppliedSeq()).Lag)
				} else if e := s.store.get(id); e != nil {
					d = float64(en.AppliedSeq()) - float64(e.log.LastSeq())
				}
				if d > max {
					max = d
				}
			})
			return max
		})
	reg.GaugeFunc("dyntc_epoch",
		"highest leadership epoch across served trees (follower: trusted term)",
		func() float64 { return float64(s.maxEpoch()) })
	reg.GaugeFunc("dyntc_fenced_epoch",
		"newer epoch a demoted leader fenced itself read-only at (0 = serving writes)",
		func() float64 { return float64(s.fenced.Load()) })
	reg.GaugeFunc("dyntc_degraded",
		"1 when serving in degraded mode (follower cut off from its leader), else 0",
		func() float64 {
			if f := s.following.Load(); f != nil {
				if degraded, _, _, _ := f.health(); degraded {
					return 1
				}
			}
			return 0
		})
	reg.GaugeFunc("dyntc_follower_backoff_seconds",
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
