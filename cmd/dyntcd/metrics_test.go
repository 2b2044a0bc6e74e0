package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/obs"
)

// testObs builds an in-memory observability hub for a test server.
func testObs(t testing.TB, cfg dyntc.ObsConfig) *dyntc.Obs {
	t.Helper()
	h, err := dyntc.NewObs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// startObsServer is startTestServer with every flush span-sampled.
func startObsServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	s := newServer(dyntc.BatchOptions{
		Obs: testObs(t, dyntc.ObsConfig{Proc: "leader", TraceSample: 1}),
	})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
	})
	return ts, s
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := startObsServer(t)

	// Drive enough traffic for every engine family to move.
	const id = 1
	leaves := restoreWide(t, ts, id)
	growAll(t, ts, id, leaves[1:])
	for i := 0; i < 50; i++ {
		call(t, "POST", tsTree(ts, id)+"/set-leaf",
			map[string]any{"leaf": leaves[0], "value": int64(i)}, http.StatusOK, nil)
	}
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"read": "root"}, http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Same validation as TestScrapeLeaderFollower: parseable text format,
	// every layer's families present.
	required := []string{
		"dyntc_engine_flush_seconds",
		"dyntc_engine_coalesce_wait_seconds",
		"dyntc_engine_requests_total",
		"dyntc_replog_lag",
		"dyntc_replog_appends_total",
		"dyntc_query_join_seconds",
	}
	samples, err := checkMetricsText(string(body), required)
	if err != nil {
		t.Fatalf("metrics check: %v\n%s", err, body)
	}
	if samples["dyntc_engine_flush_seconds_count"] <= 0 {
		t.Fatal("flush histogram never observed")
	}
	if samples[`dyntc_engine_requests_total{kind="set-leaf"}`] < 50 {
		t.Fatalf("set-leaf requests = %v, want >= 50",
			samples[`dyntc_engine_requests_total{kind="set-leaf"}`])
	}
	if samples["dyntc_replog_appends_total"] <= 0 {
		t.Fatal("wave log appends never counted")
	}
	if samples["dyntc_query_join_seconds_count"] != 1 {
		t.Fatalf("query joins = %v, want 1", samples["dyntc_query_join_seconds_count"])
	}

	// The wide grow is the one re-simulation of this run, and every surface
	// names the same reason.
	var stats struct {
		Engine struct {
			ResimReasons map[string]uint64 `json:"resim_reasons"`
		} `json:"engine"`
		LastHeal struct {
			ResimReason string `json:"resim_reason"`
		} `json:"last_heal"`
	}
	call(t, "GET", tsTree(ts, id)+"/stats", nil, http.StatusOK, &stats)
	if len(stats.Engine.ResimReasons) != 1 {
		t.Fatalf("resim_reasons = %v, want one reason", stats.Engine.ResimReasons)
	}
	for reason, n := range stats.Engine.ResimReasons {
		if n != 1 || reason != "budget" {
			t.Fatalf("resim_reasons = %v, want one budget", stats.Engine.ResimReasons)
		}
		if got := samples[`dyntc_resimulations_total{reason="`+reason+`"}`]; got != 1 {
			t.Fatalf("dyntc_resimulations_total{reason=%q} = %v, want 1\n%s", reason, got, body)
		}
	}
	if stats.LastHeal.ResimReason != "" {
		t.Fatalf("last_heal of a set-leaf wave carries reason %q", stats.LastHeal.ResimReason)
	}
}

// TestTraceEndpoint reads the sampled flush records off /v1/spans: with
// every flush sampled, each engine.flush span names its tree, lasts a
// positive time, parents its stage spans, and carries a re-simulation
// (with its reason) only on the wide grow wave.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := startObsServer(t)

	const id = 1
	leaves := restoreWide(t, ts, id)
	for i := 0; i < 30; i++ {
		call(t, "POST", tsTree(ts, id)+"/set-leaf",
			map[string]any{"leaf": leaves[0], "value": int64(i)}, http.StatusOK, nil)
	}

	// A flush records its spans after acking its requests, so the last
	// response can outrun its flush span: poll for want flush spans.
	flushes := func(want int) []obs.Span {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			var sp spansResp
			call(t, "GET", ts.URL+"/v1/spans", nil, http.StatusOK, &sp)
			if fl := bySpanName(sp.Spans, "engine.flush"); len(fl) >= want {
				return fl
			}
			if time.Now().After(deadline) {
				t.Fatalf("spans: fewer than %d engine.flush spans: %+v", want, sp.Spans)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fl := flushes(30)
	for _, sp := range fl {
		if sp.Tree != id {
			t.Fatalf("flush span tree = %d, want %d", sp.Tree, id)
		}
		if sp.Dur <= 0 || sp.Reqs < 1 || sp.Waves < 1 {
			t.Fatalf("flush span dur_ns %d reqs %d waves %d, want all > 0", sp.Dur, sp.Reqs, sp.Waves)
		}
	}
	var stages spansResp
	last := fl[len(fl)-1]
	call(t, "GET", ts.URL+"/v1/spans?trace="+last.Trace.String(), nil, http.StatusOK, &stages)
	if st := bySpanName(stages.Spans, "stage.set-leaf"); len(st) != 1 || st[0].Parent != last.Span || st[0].Dur <= 0 {
		t.Fatalf("set-leaf flush: stage spans %+v, want one stage.set-leaf child of %s", stages.Spans, last.Span)
	}

	// A wave that re-simulated says why: growing all but one leaf of the
	// tree queues more than half the trace.
	growAll(t, ts, id, leaves[1:])
	fl = flushes(len(fl) + 1)
	grow := fl[len(fl)-1] // oldest first
	if grow.Resims != 1 || grow.ResimReason != "budget" {
		t.Fatalf("grow wave: resims %d reason %q, want 1 budget", grow.Resims, grow.ResimReason)
	}
	if grow.TraceRecords <= 0 {
		t.Fatalf("grow wave: trace_records %d, want > 0", grow.TraceRecords)
	}
	for _, sp := range fl[:len(fl)-1] {
		if sp.Resims != 0 || sp.ResimReason != "" {
			t.Fatalf("set-leaf wave carries a fallback: resims %d reason %q", sp.Resims, sp.ResimReason)
		}
	}
}

// TestLastNRule pins the one ?n= rule of /v1/spans and /v1/events: n
// absent or 0 returns every retained record, n > 0 the newest n, and a
// negative or non-numeric n answers 400.
func TestLastNRule(t *testing.T) {
	ts, _ := startObsServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, http.StatusCreated, &created)
	for i := 0; i < 5; i++ {
		call(t, "POST", tsTree(ts, created.Tree)+"/set-leaf",
			map[string]any{"leaf": 0, "value": int64(i)}, http.StatusOK, nil)
	}
	count := func(route, n string) int {
		t.Helper()
		var out map[string]any
		call(t, "GET", ts.URL+route+n, nil, http.StatusOK, &out)
		for _, key := range []string{"spans", "events"} {
			if list, ok := out[key].([]any); ok {
				return len(list)
			}
		}
		t.Fatalf("GET %s%s: no record list in %v", route, n, out)
		return 0
	}
	for _, route := range []string{"/v1/spans", "/v1/events"} {
		all := count(route, "")
		if all < 1 {
			t.Fatalf("GET %s: empty", route)
		}
		if got := count(route, "?n=0"); got < all {
			t.Fatalf("GET %s?n=0: %d records, want all retained (>= %d)", route, got, all)
		}
		if got := count(route, "?n=1"); got != 1 {
			t.Fatalf("GET %s?n=1: %d records, want 1", route, got)
		}
		for _, bad := range []string{"-1", "x", "1.5"} {
			call(t, "GET", ts.URL+route+"?n="+bad, nil, http.StatusBadRequest, nil)
		}
	}
}

// slogCapture is a slog.Handler recording every record, so a test can
// read structured attributes instead of parsing text.
type slogCapture struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *slogCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *slogCapture) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *slogCapture) WithGroup(string) slog.Handler            { return h }
func (h *slogCapture) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}

// messages returns the attributes of every captured record with msg.
func (h *slogCapture) messages(msg string) []map[string]slog.Value {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []map[string]slog.Value
	for _, r := range h.recs {
		if r.Message != msg {
			continue
		}
		attrs := map[string]slog.Value{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value
			return true
		})
		out = append(out, attrs)
	}
	return out
}

// TestSlowWaveLog drives dyntcd's -slow-wave path: with the threshold
// below every flush, each flush — sampled into spans or not — logs one
// "slow wave" line carrying its duration, per-stage times and heal cost;
// with the threshold off, none does.
func TestSlowWaveLog(t *testing.T) {
	for _, threshold := range []time.Duration{time.Nanosecond, 0} {
		h := &slogCapture{}
		old := slog.Default()
		slog.SetDefault(slog.New(h))

		s := newServer(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{
			Proc: "leader", TraceSample: 1 << 30, SlowWave: threshold,
		})})
		ts := httptest.NewServer(s.routes())
		const id = 1
		leaves := restoreWide(t, ts, id)
		growAll(t, ts, id, leaves[1:])
		for i := 0; i < 4; i++ {
			call(t, "POST", tsTree(ts, id)+"/set-leaf",
				map[string]any{"leaf": leaves[0], "value": int64(i)}, http.StatusOK, nil)
		}
		ts.Close()
		en, _ := s.forest.Get(dyntc.TreeID(id))
		s.forest.Close() // drains the executors: every flush hook has run
		slog.SetDefault(old)
		flushes := en.Stats().Flushes

		lines := h.messages("slow wave")
		if threshold == 0 {
			if len(lines) != 0 {
				t.Fatalf("-slow-wave off: %d slow wave lines logged", len(lines))
			}
			continue
		}
		if flushes < 5 || uint64(len(lines)) != flushes {
			t.Fatalf("-slow-wave %v: %d slow wave lines for %d flushes", threshold, len(lines), flushes)
		}
		grows := 0
		for _, l := range lines {
			for _, key := range []string{"tree", "flush_ns", "coalesce_ns", "grow_ns", "set_leaf_ns",
				"seal_ns", "heal_records", "resims", "trace_records"} {
				if _, ok := l[key]; !ok {
					t.Fatalf("slow wave line missing %q: %v", key, l)
				}
			}
			if l["tree"].Uint64() != id || l["flush_ns"].Int64() <= 0 {
				t.Fatalf("slow wave line tree %v flush_ns %v", l["tree"], l["flush_ns"])
			}
			if l["grow_ns"].Int64() > 0 {
				grows++
				if l["resims"].Int64() != 1 || l["resim_reason"].String() != "budget" {
					t.Fatalf("grow flush line: resims %v reason %v, want one budget", l["resims"], l["resim_reason"])
				}
				if l["trace_records"].Int64() <= 0 {
					t.Fatalf("grow flush line: trace_records %v, want > 0", l["trace_records"])
				}
			}
		}
		if grows != 1 {
			t.Fatalf("%d slow wave lines with grow_ns > 0, want 1 (the grow flush)", grows)
		}
	}
}

// TestAccessLog checks the middleware's structured line shape: method,
// path, status and duration attributes (slog's default handler routes
// through the log package, so capturing its writer sees the line).
func TestAccessLog(t *testing.T) {
	_, s := startObsServer(t)
	h := withAccessLog(s.routes())

	var buf bytes.Buffer
	old := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(old)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	line := buf.String()
	for _, want := range []string{"access", "method=GET", "path=/healthz", "status=200", "dur_us="} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log line %q missing %q", line, want)
		}
	}

	// Error statuses are captured through WriteHeader, not defaulted.
	buf.Reset()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/trees/999/value", nil))
	if !strings.Contains(buf.String(), "status=404") {
		t.Fatalf("access log line %q missing status=404", buf.String())
	}
}

func tsTree(ts *httptest.Server, id uint64) string {
	return ts.URL + "/v1/trees/" + strconv.FormatUint(id, 10)
}

// restoreWide PUTs a snapshot of a 256-leaf tree as tree id and returns
// its leaves' node IDs.
func restoreWide(t *testing.T, ts *httptest.Server, id uint64) []int {
	t.Helper()
	ring := dyntc.ModRing(1_000_000_007)
	e := dyntc.NewExpr(ring, 1)
	leaves := []*dyntc.Node{e.Tree().Root}
	for len(leaves) < 256 {
		l, r := e.Grow(leaves[0], dyntc.OpAdd(ring), 1, 1)
		leaves = append(leaves[1:], l, r)
	}
	snap, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	putBytes(t, tsTree(ts, id)+"/snapshot", snap, http.StatusCreated, nil)
	ids := make([]int, len(leaves))
	for i, l := range leaves {
		ids[i] = l.ID
	}
	return ids
}

// growAll grows every given leaf in one /batch. On restoreWide's tree,
// with all but one of its leaves, that is one wave whose frontier holds
// more than half the trace: it re-simulates as budget.
func growAll(t *testing.T, ts *httptest.Server, id uint64, leaves []int) {
	t.Helper()
	ops := make([]map[string]any, len(leaves))
	for i, l := range leaves {
		ops[i] = map[string]any{"kind": "grow", "node": l, "op": "add", "left": 3, "right": 4}
	}
	call(t, "POST", tsTree(ts, id)+"/batch", map[string]any{"ops": ops}, http.StatusOK, nil)
}
