package main

// The scrape contract of a leader+follower pair, driven in process
// through the real handlers: /metrics parses as Prometheus text and
// carries every instrumented layer's families, /v1/trace and /v1/spans
// answer for an explicitly traced batch, both follower-side lag stages
// fill once a wave has replicated, and the self-diagnosis surface
// (/v1/events, /v1/hot, /v1/debug/bundle) returns well-formed JSON on
// both roles. CI's scrape smoke only curls the same endpoints of two
// real processes; the validation lives here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyntc"
)

// parseMetricsText parses Prometheus text exposition format into
// sample-name -> value (the name includes the label set verbatim, e.g.
// `dyntc_engine_stage_seconds_sum{stage="grow"}`). Comment and blank
// lines are skipped; a malformed or duplicate sample line is an error.
func parseMetricsText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; the sample name
		// (possibly containing spaces inside label values) is the rest.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln+1, line)
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value %q: %v", ln+1, val, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("metrics line %d: duplicate sample %q", ln+1, name)
		}
		out[name] = v
	}
	return out, nil
}

// checkMetricsText validates a /metrics payload: it must parse and
// contain at least one sample of every required family (family name =
// sample name prefix, so histograms match via their _count/_sum/_bucket
// series). It returns the parsed samples.
func checkMetricsText(text string, required []string) (map[string]float64, error) {
	samples, err := parseMetricsText(text)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("metrics: no samples")
	}
	for _, fam := range required {
		found := false
		for name := range samples {
			if name == fam || strings.HasPrefix(name, fam+"_") || strings.HasPrefix(name, fam+"{") {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("metrics: required family %q missing", fam)
		}
	}
	return samples, nil
}

// requiredLeaderFamilies is what a leader's /metrics must export — one
// family per instrumented layer, plus the process-health families every
// role carries (Go runtime, build info, replication-lag stages).
var requiredLeaderFamilies = []string{
	"dyntc_engine_flush_seconds",
	"dyntc_engine_coalesce_wait_seconds",
	"dyntc_engine_requests_total",
	"dyntc_sched_utilization",
	"dyntc_sched_task_seconds",
	"dyntc_replog_lag",
	"dyntc_replog_appends_total",
	"dyntc_repl_stage_seconds",
	"dyntc_query_join_seconds",
	"dyntc_events_total",
	"dyntc_hot_tree_id",
	"dyntc_hot_tree_weight",
	"dyntc_anomaly_trips_total",
	"dyntc_anomaly_active",
	"dyntc_go_goroutines",
	"dyntc_go_heap_alloc_bytes",
	"dyntc_go_gc_pause_seconds",
	"dyntc_build_info",
}

// requiredFollowerFamilies is what a follower's /metrics must export:
// replication position and lag attribution over the tailed leader, plus
// the shared process-health families.
var requiredFollowerFamilies = []string{
	"dyntc_replog_applied_seq",
	"dyntc_replog_lag",
	"dyntc_repl_stage_seconds",
	"dyntc_epoch",
	"dyntc_events_total",
	"dyntc_anomaly_trips_total",
	"dyntc_anomaly_active",
	"dyntc_go_goroutines",
	"dyntc_go_heap_alloc_bytes",
	"dyntc_build_info",
}

// TestScrapeLeaderFollower wires a leader and a follower the way main
// does — one scheduler pool and one observability bundle per process,
// every flush trace-sampled on the leader (CI's -trace-sample 1) — and
// validates both processes' observability surface after real traffic.
func TestScrapeLeaderFollower(t *testing.T) {
	leaderURL := startScrapeLeader(t)

	fpool := dyntc.NewSchedPool(2)
	t.Cleanup(fpool.Close)
	fob, err := newObsBundle(obsConfig{proc: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	fo := newFollowerOn(leaderURL, 20*time.Millisecond, fpool)
	fo.observe(fob)
	go fo.run()
	t.Cleanup(fo.Close)
	foSrv := httptest.NewServer(fo.routes())
	t.Cleanup(foSrv.Close)

	scrapeLeader(t, leaderURL, 300)
	scrapeFollower(t, leaderURL, foSrv.URL)
}

// startScrapeLeader serves a leader wired like main's: shared pool,
// obs bundle with its engine hooks, every flush trace-sampled.
func startScrapeLeader(t *testing.T) string {
	t.Helper()
	pool := dyntc.NewSchedPool(2)
	ob, err := newObsBundle(obsConfig{proc: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	opts := dyntc.BatchOptions{
		Pool: pool, Metrics: ob.engine, Trace: ob.trace, TraceSample: 1, Spans: ob.spans,
	}
	ob.engineHooks(&opts)
	s := newServer(opts)
	s.observe(ob)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
		pool.Close()
	})
	return ts.URL
}

// getText GETs base+path and returns the body, or an error on a
// transport failure or a non-200 status.
func getText(base, path string) (string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return string(body), nil
}

// scrapeLeader drives a tree through ops batched set/value requests, one
// cross-tree query and one explicitly traced batch, then validates the
// leader's spans, /metrics, /v1/trace and self-diagnosis endpoints.
func scrapeLeader(t *testing.T, base string, ops int) {
	t.Helper()
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", base+"/v1/trees", map[string]any{"root": 1}, http.StatusCreated, &created)
	tree := fmt.Sprintf("%s/v1/trees/%d", base, created.Tree)
	leaves := []int{0}
	for len(leaves) < 8 {
		var grown struct{ Left, Right int }
		call(t, "POST", tree+"/grow",
			map[string]any{"leaf": leaves[0], "op": "add", "left": 1, "right": 2}, http.StatusOK, &grown)
		leaves = append(leaves[1:], grown.Left, grown.Right)
	}

	// Batched set/value traffic: every op lands in a coalesced engine
	// flush, so the engine histograms must move.
	type batchOp struct {
		Kind  string `json:"kind"`
		Node  int    `json:"node"`
		Value int64  `json:"value,omitempty"`
	}
	for done := 0; done < ops; done += 100 {
		batch := make([]batchOp, min(100, ops-done))
		for i := range batch {
			leaf := leaves[i%len(leaves)]
			if i%8 == 7 {
				batch[i] = batchOp{Kind: "value", Node: leaf}
			} else {
				batch[i] = batchOp{Kind: "set-leaf", Node: leaf, Value: int64(done + i)}
			}
		}
		var res struct {
			Results []struct {
				Error string `json:"error"`
			} `json:"results"`
		}
		call(t, "POST", tree+"/batch", map[string]any{"ops": batch}, http.StatusOK, &res)
		for i, r := range res.Results {
			if r.Error != "" {
				t.Fatalf("batch op %d: %s", i, r.Error)
			}
		}
	}
	call(t, "POST", base+"/v1/query", map[string]any{"read": "root", "combine": "sum"}, http.StatusOK, nil)

	// One explicitly traced batch: the header comes back with the server's
	// ingest span, and the leader-side span tree is readable by trace.
	trace := dyntc.NewTraceID()
	hdr := dyntc.FormatTraceHeader(dyntc.TraceContext{Trace: trace, Span: dyntc.NewSpanID()})
	body, _ := json.Marshal(map[string]any{"ops": []batchOp{{Kind: "set-leaf", Node: leaves[0], Value: 42}}})
	req, err := http.NewRequest(http.MethodPost, tree+"/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Dyntc-Trace", hdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced batch: %s", resp.Status)
	}
	if echo := resp.Header.Get("X-Dyntc-Trace"); !strings.HasPrefix(echo, trace.String()+"-") || echo == hdr {
		t.Fatalf("traced batch: echoed header %q, want %s-<fresh ingest span>", echo, trace)
	}
	// The flush, wave and WAL spans are recorded after the batch's futures
	// resolve (the flush span when the flush ends, the wave and WAL spans
	// in the seal stage behind the set-leaf stage), so the response can
	// outrun them: poll.
	deadline := time.Now().Add(5 * time.Second)
	for _, want := range []string{"ingest.batch", "engine.flush", "wave", "wal.append"} {
		for {
			var spans spansResp
			call(t, "GET", base+"/v1/spans?trace="+trace.String(), nil, http.StatusOK, &spans)
			if len(bySpanName(spans.Spans, want)) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("spans: trace %s has no %q span: %+v", trace, want, spans.Spans)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	text := string(getBytes(t, base+"/metrics", http.StatusOK))
	samples, err := checkMetricsText(text, requiredLeaderFamilies)
	if err != nil {
		t.Fatalf("leader metrics: %v\n%s", err, text)
	}
	for _, name := range []string{
		"dyntc_engine_flush_seconds_count",
		"dyntc_query_join_seconds_count",
		`dyntc_repl_stage_seconds_count{stage="sealed_appended"}`,
	} {
		if samples[name] <= 0 {
			t.Fatalf("leader metrics: %s is zero after %d ops, a query and a traced wave", name, ops)
		}
	}

	var ring struct {
		Total int `json:"total"`
	}
	call(t, "GET", base+"/v1/trace?n=4", nil, http.StatusOK, &ring)
	if ring.Total <= 0 {
		t.Fatalf("trace: no waves sampled after %d ops", ops)
	}
	checkObsEndpoints(t, base, "leader", true)
}

// scrapeFollower validates a follower at base tailing the leader at
// leaderURL: /metrics must carry the follower families with both
// follower-side lag stages non-empty, and /v1/spans must hold a
// replica.apply span parented on its wave anchor. A follower that
// bootstrapped after the leader's traffic has nothing to apply (the
// snapshot covers every wave), so each poll round seals one more wave on
// a dedicated tree before re-checking.
func scrapeFollower(t *testing.T, leaderURL, base string) {
	t.Helper()
	var nudge struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderURL+"/v1/trees", map[string]any{"root": 1}, http.StatusCreated, &nudge)
	converged := func() error {
		text, err := getText(base, "/metrics")
		if err != nil {
			return err
		}
		samples, err := checkMetricsText(text, requiredFollowerFamilies)
		if err != nil {
			return err
		}
		for _, stage := range []string{"appended_fetched", "fetched_applied"} {
			if samples[`dyntc_repl_stage_seconds_count{stage="`+stage+`"}`] <= 0 {
				return fmt.Errorf("metrics: follower %s lag stage empty", stage)
			}
		}
		body, err := getText(base, "/v1/spans")
		if err != nil {
			return err
		}
		var spans spansResp
		if err := json.Unmarshal([]byte(body), &spans); err != nil {
			return fmt.Errorf("spans: bad body: %v", err)
		}
		for _, sp := range bySpanName(spans.Spans, "replica.apply") {
			if sp.Proc == "follower" && sp.Parent == dyntc.WaveSpanID(sp.Epoch, sp.Seq) {
				return nil
			}
		}
		return fmt.Errorf("spans: no replica.apply span parented on its wave anchor yet")
	}
	deadline := time.Now().Add(15 * time.Second)
	for round := int64(0); ; round++ {
		call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/set-leaf", leaderURL, nudge.Tree),
			map[string]any{"leaf": 0, "value": round}, http.StatusOK, nil)
		err := converged()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower scrape: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	checkObsEndpoints(t, base, "follower", false)
}

// checkObsEndpoints validates the self-diagnosis surface both roles
// serve: the lifecycle event journal, the hot-tree attribution and the
// one-shot debug bundle. wantRole pins the bundle's role field; wantHot
// additionally requires the hot-tree cost dimension to have absorbed
// traffic (true on a leader that just served load, false on a follower
// whose engines never flush).
func checkObsEndpoints(t *testing.T, base, wantRole string, wantHot bool) {
	t.Helper()
	var ev struct {
		Total  uint64        `json:"total"`
		Events []dyntc.Event `json:"events"`
	}
	call(t, "GET", base+"/v1/events?n=64", nil, http.StatusOK, &ev)
	if ev.Total == 0 || len(ev.Events) == 0 {
		t.Fatalf("%s events: journal empty (every process journals at least process.start)", wantRole)
	}
	for _, e := range ev.Events {
		if e.Seq == 0 || e.Type == "" {
			t.Fatalf("%s events: malformed event %+v", wantRole, e)
		}
	}

	var hot map[string]struct {
		Total uint64           `json:"total"`
		Trees []dyntc.TopKItem `json:"trees"`
	}
	call(t, "GET", base+"/v1/hot", nil, http.StatusOK, &hot)
	for _, dim := range []string{"cost", "reqs", "shed"} {
		if _, ok := hot[dim]; !ok {
			t.Fatalf("%s hot: missing dimension %q", wantRole, dim)
		}
	}
	if wantHot && (hot["cost"].Total == 0 || len(hot["cost"].Trees) == 0) {
		t.Fatalf("%s hot: cost dimension empty after load", wantRole)
	}

	var bundle struct {
		Role    string          `json:"role"`
		Metrics string          `json:"metrics"`
		Events  []dyntc.Event   `json:"events"`
		Anomaly map[string]any  `json:"anomaly"`
		Hot     json.RawMessage `json:"hot"`
	}
	call(t, "GET", base+"/v1/debug/bundle", nil, http.StatusOK, &bundle)
	if bundle.Role != wantRole {
		t.Fatalf("debug bundle: role %q, want %q", bundle.Role, wantRole)
	}
	if !strings.Contains(bundle.Metrics, "dyntc_events_total") {
		t.Fatalf("%s debug bundle: embedded metrics snapshot missing dyntc_events_total", wantRole)
	}
	if len(bundle.Events) == 0 || len(bundle.Hot) == 0 {
		t.Fatalf("%s debug bundle: missing events or hot sections", wantRole)
	}
	if _, ok := bundle.Anomaly["trips"]; !ok {
		t.Fatalf("%s debug bundle: anomaly section missing trips: %v", wantRole, bundle.Anomaly)
	}
}
