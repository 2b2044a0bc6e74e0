package main

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dyntc"
)

// startObsServer is startTestServer with the observability bundle wired:
// metrics registry, engine histograms, trace ring (sampled every flush)
// and the /metrics + /v1/trace routes.
func startObsServer(t *testing.T) (*httptest.Server, *server, *obsBundle) {
	t.Helper()
	ob, err := newObsBundle(obsConfig{traceCap: 16, proc: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(dyntc.BatchOptions{
		Metrics: ob.engine, Trace: ob.trace, TraceSample: 1, Spans: ob.spans,
	})
	s.observe(ob)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
	})
	return ts, s, ob
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := startObsServer(t)

	// Drive enough traffic for every engine family to move.
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, http.StatusCreated, &created)
	var grown struct{ Left, Right int }
	call(t, "POST", tsTree(ts, created.Tree)+"/grow",
		map[string]any{"leaf": 0, "op": "add", "left": 3, "right": 4}, http.StatusOK, &grown)
	for i := 0; i < 50; i++ {
		call(t, "POST", tsTree(ts, created.Tree)+"/set-leaf",
			map[string]any{"leaf": grown.Left, "value": int64(i)}, http.StatusOK, nil)
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

	// The grow of a one-leaf tree is below the propagation floor: the one
	// fallback of this run, and every surface names the same reason.
	var stats struct {
		Engine struct {
			ResimReasons map[string]uint64 `json:"resim_reasons"`
		} `json:"engine"`
		LastHeal struct {
			ResimReason string `json:"resim_reason"`
		} `json:"last_heal"`
	}
	call(t, "GET", tsTree(ts, created.Tree)+"/stats", nil, http.StatusOK, &stats)
	if len(stats.Engine.ResimReasons) != 1 {
		t.Fatalf("resim_reasons = %v, want one reason", stats.Engine.ResimReasons)
	}
	for reason, n := range stats.Engine.ResimReasons {
		if n != 1 || (reason != "tiny" && reason != "full_rebuild") {
			t.Fatalf("resim_reasons = %v, want one tiny or full_rebuild", stats.Engine.ResimReasons)
		}
		if got := samples[`dyntc_resimulations_total{reason="`+reason+`"}`]; got != 1 {
			t.Fatalf("dyntc_resimulations_total{reason=%q} = %v, want 1\n%s", reason, got, body)
		}
	}
	if stats.LastHeal.ResimReason != "" {
		t.Fatalf("last_heal of a set-leaf wave carries reason %q", stats.LastHeal.ResimReason)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, _, ob := startObsServer(t)

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, http.StatusCreated, &created)
	for i := 0; i < 30; i++ {
		call(t, "POST", tsTree(ts, created.Tree)+"/set-leaf",
			map[string]any{"leaf": 0, "value": int64(i)}, http.StatusOK, nil)
	}

	var trace struct {
		Total  int                     `json:"total"`
		Traces []dyntc.WaveTraceRecord `json:"traces"`
	}
	call(t, "GET", ts.URL+"/v1/trace?n=5", nil, http.StatusOK, &trace)
	if trace.Total < 30 {
		t.Fatalf("trace total = %d, want >= 30 (sampling every flush)", trace.Total)
	}
	if len(trace.Traces) != 5 {
		t.Fatalf("len(traces) = %d, want 5", len(trace.Traces))
	}
	for _, tr := range trace.Traces {
		if tr.Tree != created.Tree {
			t.Fatalf("trace tree = %d, want %d", tr.Tree, created.Tree)
		}
		if tr.Flush <= 0 {
			t.Fatalf("trace flush ns = %d, want > 0", tr.Flush)
		}
	}
	if ob.trace.Total() != trace.Total {
		t.Fatalf("ring total %d != endpoint total %d", ob.trace.Total(), trace.Total)
	}

	call(t, "GET", ts.URL+"/v1/trace?n=bogus", nil, http.StatusBadRequest, nil)

	// A wave that fell back to re-simulation says why: growing a one-leaf
	// tree is below the propagation floor.
	call(t, "POST", tsTree(ts, created.Tree)+"/grow",
		map[string]any{"leaf": 0, "op": "add", "left": 3, "right": 4}, http.StatusOK, nil)
	call(t, "GET", ts.URL+"/v1/trace?n=5", nil, http.StatusOK, &trace)
	last := len(trace.Traces) - 1 // oldest first
	if tr := trace.Traces[last]; tr.Resims != 1 || (tr.ResimReason != "tiny" && tr.ResimReason != "full_rebuild") {
		t.Fatalf("grow wave: resims %d reason %q, want 1 tiny or full_rebuild", tr.Resims, tr.ResimReason)
	}
	for _, tr := range trace.Traces[:last] {
		if tr.Resims != 0 || tr.ResimReason != "" {
			t.Fatalf("set-leaf wave carries a fallback: resims %d reason %q", tr.Resims, tr.ResimReason)
		}
	}
}

// TestAccessLog checks the middleware's structured line shape: method,
// path, status and duration attributes (slog's default handler routes
// through the log package, so capturing its writer sees the line).
func TestAccessLog(t *testing.T) {
	_, s, _ := startObsServer(t)
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
