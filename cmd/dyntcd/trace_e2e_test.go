package main

// End-to-end distributed tracing tests: one trace ID covering HTTP
// ingest → engine flush → wave stages → WAL append on the leader and
// fetch → verified apply on an in-process follower, stitched through
// the deterministic (epoch, seq) wave span ID; plus the promotion test
// proving the observability surface survives the follower→leader mux
// swap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyntc"
)

// spansResp is the GET /v1/spans response shape.
type spansResp struct {
	Total uint64             `json:"total"`
	Spans []dyntc.SpanRecord `json:"spans"`
}

// bySpanName returns the retained spans with the given name, in order.
func bySpanName(spans []dyntc.SpanRecord, name string) []dyntc.SpanRecord {
	var out []dyntc.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestDistributedTraceEndToEnd is the acceptance scenario: a leader with
// an unsampled cadence (TraceSample far beyond the traffic) and a live
// in-process follower; one batch carrying an X-Dyntc-Trace header forces
// end-to-end sampling, and a single trace ID must cover ingest, flush,
// stages, the wave anchor, the WAL append, and — across the process
// boundary — the follower's fetch and apply, with the three lag-stage
// histograms non-empty and consistent with the span timestamps.
func TestDistributedTraceEndToEnd(t *testing.T) {
	lob, err := newObsBundle(obsConfig{traceCap: 64, proc: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(dyntc.BatchOptions{
		Metrics: lob.engine, Trace: lob.trace, TraceSample: 1 << 20, Spans: lob.spans,
	})
	s.observe(lob)
	leaderSrv := httptest.NewServer(s.routes())
	t.Cleanup(func() { leaderSrv.Close(); s.forest.Close() })

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)

	fob, err := newObsBundle(obsConfig{traceCap: 64, proc: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	fo := newFollower(leaderSrv.URL, 2*time.Millisecond)
	fo.observe(fob)
	go fo.run()
	t.Cleanup(fo.Close)
	foSrv := httptest.NewServer(fo.routes())
	t.Cleanup(foSrv.Close)

	// The follower must bootstrap before the traced wave is sealed, so the
	// wave reaches it through the log tail (the replicated path under
	// test), not baked into the bootstrap snapshot.
	waitHealthz(t, foSrv.URL, func(_ int, h healthTrees) bool { return len(h.Trees) == 1 })

	// One traced batch: a grow (mutating → sealed wave → WAL → follower)
	// plus a root read, under a client-minted trace context.
	clientTrace := dyntc.NewTraceID()
	clientSpan := dyntc.NewSpanID()
	hdr := dyntc.FormatTraceHeader(dyntc.TraceContext{Trace: clientTrace, Span: clientSpan})
	body, _ := json.Marshal(map[string]any{"ops": []map[string]any{
		{"kind": "grow", "node": 0, "op": "add", "left": 2, "right": 3},
		{"kind": "root"},
	}})
	req, err := http.NewRequest("POST",
		fmt.Sprintf("%s/v1/trees/%d/batch", leaderSrv.URL, created.Tree), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Dyntc-Trace", hdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("traced batch: status %d", resp.StatusCode)
	}
	// The response echoes the trace with the server's ingest span:
	// "<trace>-<ingest>", same trace, a span the server minted.
	echo := resp.Header.Get("X-Dyntc-Trace")
	if !strings.HasPrefix(echo, clientTrace.String()+"-") || echo == hdr {
		t.Fatalf("echoed trace header %q, want %s-<fresh ingest span>", echo, clientTrace)
	}

	// Leader-side span tree.
	var ls spansResp
	call(t, "GET", leaderSrv.URL+"/v1/spans?trace="+clientTrace.String(), nil, 200, &ls)
	ingest := bySpanName(ls.Spans, "ingest.batch")
	if len(ingest) != 1 || ingest[0].Parent != clientSpan || ingest[0].Proc != "leader" {
		t.Fatalf("ingest spans = %+v, want one parented on the client span", ingest)
	}
	var flush dyntc.SpanRecord
	for _, f := range bySpanName(ls.Spans, "engine.flush") {
		if f.Parent == ingest[0].Span {
			flush = f
		}
	}
	if flush.Span == 0 {
		t.Fatalf("no engine.flush parented on the ingest span; spans: %+v", ls.Spans)
	}
	if flush.Reqs <= 0 || flush.Tree != created.Tree {
		t.Fatalf("flush span %+v, want reqs > 0 on tree %d", flush, created.Tree)
	}
	var stages int
	for _, sp := range ls.Spans {
		if strings.HasPrefix(sp.Name, "stage.") && sp.Parent == flush.Span {
			stages++
		}
	}
	if stages == 0 {
		t.Fatalf("no stage.* spans under the flush; spans: %+v", ls.Spans)
	}
	waves := bySpanName(ls.Spans, "wave")
	if len(waves) != 1 {
		t.Fatalf("wave spans = %+v, want exactly one", waves)
	}
	wave := waves[0]
	if wave.Parent != flush.Span || wave.Seq == 0 ||
		wave.Span != dyntc.WaveSpanID(wave.Epoch, wave.Seq) {
		t.Fatalf("wave span %+v, want parent=flush and span=WaveSpanID(%d,%d)",
			wave, wave.Epoch, wave.Seq)
	}
	appends := bySpanName(ls.Spans, "wal.append")
	if len(appends) != 1 || appends[0].Parent != wave.Span {
		t.Fatalf("wal.append spans = %+v, want one parented on the wave anchor", appends)
	}

	// Convergence, then the follower's side of the same trace.
	var leaderHealth healthTrees
	call(t, "GET", leaderSrv.URL+"/v1/healthz", nil, 200, &leaderHealth)
	wantSeq := leaderHealth.Trees[0].AppliedSeq
	waitHealthz(t, foSrv.URL, func(_ int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq == wantSeq
	})

	var fs spansResp
	call(t, "GET", foSrv.URL+"/v1/spans?trace="+clientTrace.String(), nil, 200, &fs)
	fetch := bySpanName(fs.Spans, "replica.fetch")
	apply := bySpanName(fs.Spans, "replica.apply")
	if len(fetch) != 1 || len(apply) != 1 {
		t.Fatalf("follower spans = %+v, want one replica.fetch and one replica.apply", fs.Spans)
	}
	for _, sp := range []dyntc.SpanRecord{fetch[0], apply[0]} {
		if sp.Proc != "follower" || sp.Parent != wave.Span || sp.Seq != wave.Seq {
			t.Fatalf("follower span %+v, want proc=follower parented on wave %v seq %d",
				sp, wave.Span, wave.Seq)
		}
	}
	// Cross-process timestamp stitch: the WAL append ends exactly where
	// the fetch-lag stage begins (both are the leader's AppendedAt stamp).
	if got := appends[0].Start + appends[0].Dur; got != fetch[0].Start {
		t.Fatalf("wal.append end %d != replica.fetch start %d", got, fetch[0].Start)
	}
	if apply[0].Start < fetch[0].Start {
		t.Fatalf("replica.apply starts at %d, before the fetch at %d", apply[0].Start, fetch[0].Start)
	}
	// The same wave is also reachable by the cross-process join key.
	var bySeq spansResp
	call(t, "GET", fmt.Sprintf("%s/v1/spans?seq=%d", foSrv.URL, wave.Seq), nil, 200, &bySeq)
	if len(bySeq.Spans) != 2 {
		t.Fatalf("spans by seq = %+v, want the fetch/apply pair", bySeq.Spans)
	}

	// Replication-lag attribution: all three stage histograms non-empty,
	// on the role that owns each stage.
	lm, err := parseMetricsText(string(getBytes(t, leaderSrv.URL+"/metrics", 200)))
	if err != nil {
		t.Fatal(err)
	}
	if lm[`dyntc_repl_stage_seconds_count{stage="sealed_appended"}`] < 1 {
		t.Fatal("leader sealed_appended histogram empty")
	}
	fm, err := parseMetricsText(string(getBytes(t, foSrv.URL+"/metrics", 200)))
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"appended_fetched", "fetched_applied"} {
		if fm[`dyntc_repl_stage_seconds_count{stage="`+stage+`"}`] < 1 {
			t.Fatalf("follower %s histogram empty", stage)
		}
	}
	// Span timestamps and the histograms agree on the fetch-lag magnitude:
	// the histogram total is at least the traced wave's span duration. The
	// sum is exported in seconds, so round it back to whole nanoseconds:
	// 496740ns exports as 0.00049674 and reads back as 496739.99…ns.
	if sum := fm[`dyntc_repl_stage_seconds_sum{stage="appended_fetched"}`]; math.Round(sum*1e9) < float64(fetch[0].Dur) {
		t.Fatalf("appended_fetched sum %vs < traced span %dns", sum, fetch[0].Dur)
	}
}

// TestPromotionKeepsObservability is the mux-swap regression test: after
// POST /v1/promote replaces the follower mux with a full leader mux on
// the same listener, /metrics, /v1/trace and /v1/spans must keep
// serving, and write traffic through the promoted leader must move the
// leader-side families on the same registry.
func TestPromotionKeepsObservability(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree)
	lastLeaf := growSome(t, base, 5, 0)

	fob, err := newObsBundle(obsConfig{traceCap: 16, proc: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	fo := newFollower(leaderSrv.URL, 2*time.Millisecond)
	// The engine options the promoted leader will serve with: every flush
	// sampled, spans into the same bundle the follower already exports.
	fo.opts = dyntc.BatchOptions{
		Metrics: fob.engine, Trace: fob.trace, TraceSample: 1, Spans: fob.spans,
	}
	fo.observe(fob)
	go fo.run()
	t.Cleanup(fo.Close)
	// handler(), not routes(): promotion swaps the leader mux in behind it.
	foSrv := httptest.NewServer(fo.handler())
	t.Cleanup(foSrv.Close)

	waitHealthz(t, foSrv.URL, func(_ int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq == 5
	})
	call(t, "POST", foSrv.URL+"/v1/promote", nil, 200, nil)

	// The observability surface survives the swap.
	for _, path := range []string{"/metrics", "/v1/trace", "/v1/spans"} {
		getBytes(t, foSrv.URL+path, 200)
	}

	// Writes through the promoted leader move the re-registered leader
	// families: engine flush timing, WAL appends, and the sealed→appended
	// lag stage (every flush is sampled, so waves carry SealedAt).
	growSome(t, fmt.Sprintf("%s/v1/trees/%d", foSrv.URL, created.Tree), 3, lastLeaf)
	text := string(getBytes(t, foSrv.URL+"/metrics", 200))
	samples, err := checkMetricsText(text, []string{
		"dyntc_engine_flush_seconds",
		"dyntc_engine_requests_total",
		"dyntc_replog_appends_total",
		"dyntc_repl_stage_seconds",
		"dyntc_go_goroutines",
		"dyntc_build_info",
	})
	if err != nil {
		t.Fatalf("promoted metrics check: %v\n%s", err, text)
	}
	if samples["dyntc_engine_flush_seconds_count"] < 3 {
		t.Fatalf("promoted flush count = %v, want >= 3", samples["dyntc_engine_flush_seconds_count"])
	}
	if samples[`dyntc_repl_stage_seconds_count{stage="sealed_appended"}`] < 3 {
		t.Fatalf("promoted sealed_appended count = %v, want >= 3",
			samples[`dyntc_repl_stage_seconds_count{stage="sealed_appended"}`])
	}
	if samples["dyntc_epoch"] < 2 {
		t.Fatalf("promoted epoch = %v, want >= 2", samples["dyntc_epoch"])
	}
	// The promoted leader's spans keep landing in the same ring.
	var sp spansResp
	call(t, "GET", foSrv.URL+"/v1/spans", nil, 200, &sp)
	if len(bySpanName(sp.Spans, "engine.flush")) == 0 {
		t.Fatalf("no engine.flush spans after promotion; spans: %+v", sp.Spans)
	}
}
