package main

// End-to-end distributed tracing tests: one trace ID covering HTTP
// ingest → engine flush → wave stages → WAL append on the leader and
// fetch → verified apply on an in-process follower, stitched through
// the deterministic (epoch, seq) wave span ID; plus the promotion test
// proving the observability surface survives the in-place
// follower→leader flip.

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
	"dyntc/internal/obs"
)

// spansResp is the GET /v1/spans response shape.
type spansResp struct {
	Total uint64     `json:"total"`
	Spans []obs.Span `json:"spans"`
}

// bySpanName returns the retained spans with the given name, in order.
func bySpanName(spans []obs.Span, name string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// waveFlush returns the engine.flush span that is parented on an
// ingest.batch span and is the parent of a wave span, or a zero Span. A
// batch's ops can land in two flushes, both parented on its ingest span,
// when the executor starts on the first op before the last is queued;
// only the flush that ran the mutating op seals a wave.
func waveFlush(spans []obs.Span) obs.Span {
	for _, f := range bySpanName(spans, "engine.flush") {
		for _, in := range bySpanName(spans, "ingest.batch") {
			for _, w := range bySpanName(spans, "wave") {
				if f.Parent == in.Span && w.Parent == f.Span {
					return f
				}
			}
		}
	}
	return obs.Span{}
}

// stagesUnder counts the stage.* spans parented on span.
func stagesUnder(spans []obs.Span, span obs.SpanID) int {
	n := 0
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "stage.") && sp.Parent == span {
			n++
		}
	}
	return n
}

// TestDistributedTraceEndToEnd is the acceptance scenario: a leader with
// an unsampled cadence (TraceSample far beyond the traffic) and a live
// in-process follower; one batch carrying an X-Dyntc-Trace header forces
// end-to-end sampling, and a single trace ID must cover ingest, flush,
// stages, the wave anchor, the WAL append, and — across the process
// boundary — the follower's fetch and apply, with the three lag-stage
// histograms non-empty and consistent with the span timestamps.
func TestDistributedTraceEndToEnd(t *testing.T) {
	s := newServer(dyntc.BatchOptions{
		Obs: testObs(t, dyntc.ObsConfig{Proc: "leader", TraceSample: 1 << 20}),
	})
	leaderSrv := httptest.NewServer(s.routes())
	t.Cleanup(func() { leaderSrv.Close(); s.forest.Close() })

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)

	fo := newServer(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "follower"})})
	fo.follow(leaderSrv.URL, 2*time.Millisecond)
	foSrv := serveFollower(t, fo)

	// The follower must bootstrap before the traced wave is sealed, so the
	// wave reaches it through the log tail (the replicated path under
	// test), not baked into the bootstrap snapshot.
	waitHealthz(t, foSrv.URL, func(_ int, h healthTrees) bool { return len(h.Trees) == 1 })

	// One traced batch: a grow (mutating → sealed wave → WAL → follower)
	// plus a root read, under a client-minted trace context.
	clientTrace := obs.NewTraceID()
	clientSpan := obs.NewSpanID()
	hdr := obs.FormatTraceHeader(dyntc.TraceContext{Trace: clientTrace, Span: clientSpan})
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

	// Leader-side span tree. The sampled engine.flush span and then its
	// stage spans are emitted after the flush's acks, so the response can
	// beat them: poll until the flush that sealed the wave appears under
	// the ingest span with its stages, or the deadline passes and the
	// checks below say what is missing.
	var ls spansResp
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ls = spansResp{}
		call(t, "GET", leaderSrv.URL+"/v1/spans?trace="+clientTrace.String(), nil, 200, &ls)
		if f := waveFlush(ls.Spans); f.Span != 0 && stagesUnder(ls.Spans, f.Span) > 0 || time.Now().After(deadline) {
			break
		}
	}
	ingest := bySpanName(ls.Spans, "ingest.batch")
	if len(ingest) != 1 || ingest[0].Parent != clientSpan || ingest[0].Proc != "leader" {
		t.Fatalf("ingest spans = %+v, want one parented on the client span", ingest)
	}
	flush := waveFlush(ls.Spans)
	if flush.Span == 0 {
		t.Fatalf("no engine.flush parented on the ingest span is a wave's parent; spans: %+v", ls.Spans)
	}
	if flush.Reqs <= 0 || flush.Tree != created.Tree {
		t.Fatalf("flush span %+v, want reqs > 0 on tree %d", flush, created.Tree)
	}
	if stagesUnder(ls.Spans, flush.Span) == 0 {
		t.Fatalf("no stage.* spans under the flush; spans: %+v", ls.Spans)
	}
	waves := bySpanName(ls.Spans, "wave")
	if len(waves) != 1 {
		t.Fatalf("wave spans = %+v, want exactly one", waves)
	}
	wave := waves[0]
	if wave.Parent != flush.Span || wave.Seq == 0 ||
		wave.Span != obs.WaveSpanID(wave.Epoch, wave.Seq) {
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

	// The follower records its spans after the applied seq moves, so
	// poll for them too.
	var fs spansResp
	var fetch, apply []obs.Span
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		fs = spansResp{}
		call(t, "GET", foSrv.URL+"/v1/spans?trace="+clientTrace.String(), nil, 200, &fs)
		fetch = bySpanName(fs.Spans, "replica.fetch")
		apply = bySpanName(fs.Spans, "replica.apply")
		if len(fetch) > 0 && len(apply) > 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(fetch) != 1 || len(apply) != 1 {
		t.Fatalf("follower spans = %+v, want one replica.fetch and one replica.apply", fs.Spans)
	}
	for _, sp := range []obs.Span{fetch[0], apply[0]} {
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

// TestPromotionKeepsObservability: after POST /v1/promote flips the
// follower to leading in place, /metrics, /v1/spans and /v1/events must
// keep serving, and write traffic through the promoted leader must move
// the leader-side families on the same registry.
func TestPromotionKeepsObservability(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree)
	lastLeaf := growSome(t, base, 5, 0)

	// The hub the replicas, and so the promoted leader, serve with: every
	// flush sampled, spans into the log the follower exports.
	fo := newServer(dyntc.BatchOptions{
		Obs: testObs(t, dyntc.ObsConfig{Proc: "follower", TraceSample: 1}),
	})
	fo.follow(leaderSrv.URL, 2*time.Millisecond)
	foSrv := serveFollower(t, fo)

	waitHealthz(t, foSrv.URL, func(_ int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq == 5
	})
	call(t, "POST", foSrv.URL+"/v1/promote", nil, 200, nil)

	// The observability surface survives the flip.
	for _, path := range []string{"/metrics", "/v1/spans", "/v1/events"} {
		getBytes(t, foSrv.URL+path, 200)
	}

	// Writes through the promoted leader move the leader-side families:
	// engine flush timing, WAL appends, and the sealed→appended
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
