package main

// End-to-end tests for the self-diagnosing runtime: the lifecycle event
// journal must record failover, degradation and recovery in order, and
// the anomaly flight recorder must turn a latency fault on a live
// process into a journaled anomaly event, a temporary trace-sampling
// boost, and a debug bundle that carries the whole incident.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/obs"
)

// eventsOf fetches /v1/events with the given raw query string.
func eventsOf(t *testing.T, base, query string) []obs.Event {
	t.Helper()
	var out struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	status, _ := getStatus(t, base+"/v1/events"+query, &out)
	if status != 200 {
		t.Fatalf("GET /v1/events%s: status %d", query, status)
	}
	return out.Events
}

// waitEvents polls /v1/events?type=typ until at least n events match.
func waitEvents(t *testing.T, base, typ string, n int) []obs.Event {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		evs := eventsOf(t, base, "?type="+typ)
		if len(evs) >= n {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d %q events; have %d", n, typ, len(evs))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countSpans returns how many retained spans carry the given name.
func countSpans(t *testing.T, base, name string) int {
	t.Helper()
	var out struct {
		Spans []obs.Span `json:"spans"`
	}
	if status, _ := getStatus(t, base+"/v1/spans", &out); status != 200 {
		t.Fatalf("GET /v1/spans: status %d", status)
	}
	n := 0
	for _, sp := range out.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func fieldNum(t *testing.T, ev obs.Event, key string) float64 {
	t.Helper()
	v, ok := ev.Fields[key].(float64)
	if !ok {
		t.Fatalf("event %q: field %q = %v (%T), want number", ev.Type, key, ev.Fields[key], ev.Fields[key])
	}
	return v
}

// TestEventJournalFailoverSequence promotes a follower over a live
// leader and asserts both journals tell the story in order: the
// follower's records process.start before leader.promote (with the
// epoch and tree count in the fields), and the demoted leader journals
// leader.demote when the fence lands. healthz on both roles surfaces
// the journal's last event.
func TestEventJournalFailoverSequence(t *testing.T) {
	s := newServerWAL(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "leader"})}, t.TempDir(), 0)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
		s.store.close()
	})

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 3}, 201, &created)
	growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree), 4, 0)

	fo := newServerWAL(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "follower"})}, t.TempDir(), 0)
	fo.follow(ts.URL, 2*time.Millisecond)
	foSrv := serveFollower(t, fo)

	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq >= 4
	})
	if status := postStatus(t, foSrv.URL+"/v1/promote", nil, nil); status != 200 {
		t.Fatalf("promote: status %d", status)
	}

	// Promoted process: process.start, then leader.promote, in sequence
	// order, on the same journal the follower was born with.
	proms := waitEvents(t, foSrv.URL, obs.EvPromote, 1)
	if proms[0].Proc != "follower" {
		t.Fatalf("promote event proc = %q, want the promoting process", proms[0].Proc)
	}
	if got := fieldNum(t, proms[0], "epoch"); got != 2 {
		t.Fatalf("promote event epoch = %v, want 2", got)
	}
	if got := fieldNum(t, proms[0], "trees"); got != 1 {
		t.Fatalf("promote event trees = %v, want 1", got)
	}
	starts := eventsOf(t, foSrv.URL, "?type="+obs.EvProcessStart)
	if len(starts) != 1 {
		t.Fatalf("process.start events = %d, want 1", len(starts))
	}
	if starts[0].Seq >= proms[0].Seq {
		t.Fatalf("event order: process.start seq %d !< promote seq %d", starts[0].Seq, proms[0].Seq)
	}

	// Demoted leader: the async fence journals leader.demote with the
	// winning epoch, and healthz points at it as the last event.
	dems := waitEvents(t, ts.URL, obs.EvDemote, 1)
	if got := fieldNum(t, dems[0], "epoch"); got != 2 {
		t.Fatalf("demote event epoch = %v, want 2", got)
	}
	var h struct {
		LastEvent     *obs.Event `json:"last_event"`
		AnomalyActive *bool      `json:"anomaly_active"`
	}
	getStatus(t, ts.URL+"/v1/healthz", &h)
	if h.LastEvent == nil || h.LastEvent.Type != obs.EvDemote {
		t.Fatalf("demoted leader healthz last_event = %+v, want %s", h.LastEvent, obs.EvDemote)
	}
	if h.AnomalyActive == nil {
		t.Fatal("healthz missing anomaly_active")
	}
}

// TestEventJournalDegradedSequence blacks out the follower's transport
// with a self-healing fault rule and asserts the journal records
// degraded.enter (with the error count) strictly before degraded.exit
// (with the outage duration).
func TestEventJournalDegradedSequence(t *testing.T) {
	ts, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 5}, 201, &created)
	growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree), 3, 0)

	in := dyntc.NewFaultInjector(7)
	fo := newServer(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "follower"})})
	fo.follow(ts.URL, 2*time.Millisecond)
	fo.setFaults(in, 7)
	foSrv := serveFollower(t, fo)

	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq >= 3
	})

	// Six straight transport errors, then the rule exhausts and contact
	// restores itself — enter on the third failure, exit on recovery.
	in.Add(dyntc.FaultRule{Site: "follower.rpc", Err: dyntc.ErrFaultInjected, Times: 6})
	enter := waitEvents(t, foSrv.URL, obs.EvDegradedEnter, 1)
	exit := waitEvents(t, foSrv.URL, obs.EvDegradedExit, 1)
	if enter[0].Seq >= exit[0].Seq {
		t.Fatalf("event order: enter seq %d !< exit seq %d", enter[0].Seq, exit[0].Seq)
	}
	if got := fieldNum(t, enter[0], "consecutive_errors"); got < degradedErrThreshold {
		t.Fatalf("enter event consecutive_errors = %v, want >= %d", got, degradedErrThreshold)
	}
	if got := fieldNum(t, exit[0], "outage_ms"); got < 0 {
		t.Fatalf("exit event outage_ms = %v", got)
	}
	// Prefix query: the trailing-dot form returns both edges.
	both := eventsOf(t, foSrv.URL, "?type=follower.degraded.")
	if len(both) < 2 {
		t.Fatalf("prefix query returned %d events, want enter+exit", len(both))
	}
}

// TestEventJournalTornTailRecovery tears a WAL tail mid-record and
// restarts: startup recovery must journal wal.recover.torn with the
// dropped byte count against the right tree, strictly after
// process.start, and the per-type counter must show up in /metrics.
func TestEventJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	ts := httptest.NewServer(s.routes())
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 11}, 201, &created)
	growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree), 6, 0)
	ts.Close()
	s.forest.Close()
	s.store.close()

	walPath := filepath.Join(dir, fmt.Sprintf("tree-%d.wal", created.Tree))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, wal[:len(wal)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	// The hub is wired at construction, before recover: recovery itself
	// must journal.
	s2 := newServerWAL(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "leader"})}, dir, 0)
	if err := s2.store.recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.routes())
	t.Cleanup(func() {
		ts2.Close()
		s2.forest.Close()
		s2.store.close()
	})

	torn := waitEvents(t, ts2.URL, obs.EvWALTorn, 1)
	if torn[0].Tree != created.Tree {
		t.Fatalf("torn event tree = %d, want %d", torn[0].Tree, created.Tree)
	}
	if got := fieldNum(t, torn[0], "bytes"); got <= 0 {
		t.Fatalf("torn event bytes = %v, want > 0", got)
	}
	if got := fieldNum(t, torn[0], "recovered_to"); got != 5 {
		t.Fatalf("torn event recovered_to = %v, want 5", got)
	}
	starts := eventsOf(t, ts2.URL, "?type="+obs.EvProcessStart)
	if len(starts) != 1 || starts[0].Seq >= torn[0].Seq {
		t.Fatalf("event order: process.start %+v !< torn seq %d", starts, torn[0].Seq)
	}

	var h struct {
		LastEvent *obs.Event `json:"last_event"`
	}
	getStatus(t, ts2.URL+"/v1/healthz", &h)
	if h.LastEvent == nil {
		t.Fatal("healthz missing last_event after recovery")
	}
	metrics := string(getBytes(t, ts2.URL+"/metrics", 200))
	if !strings.Contains(metrics, `dyntc_events_total{type="wal.recover.torn"} 1`) {
		t.Fatal("metrics missing the wal.recover.torn event counter")
	}
}

// TestIncidentFlightRecorderLeader is the full incident drill on a live
// leader: a latency fault stalls two waves, the flush-latency detector
// trips, the journal gets an anomaly event carrying the engine snapshot,
// trace sampling provably boosts while the window is open and decays
// after it, and one debug-bundle fetch captures the whole incident —
// the event, a densely-traced slow wave, and the metrics text.
func TestIncidentFlightRecorderLeader(t *testing.T) {
	b := testObs(t, dyntc.ObsConfig{
		Proc:        "leader",
		TraceSample: 1 << 30, // cadence effectively off: only the boost samples
		// MinNS sits above the warm-up flushes' noise (11 ms seen under
		// -race) and below the 60 ms stall, so a noisy warm-up flush
		// cannot spend the signal's only trip.
		Anomaly: obs.AnomalyConfig{
			Warmup:   8,
			Window:   16,
			MinNS:    float64(30 * time.Millisecond),
			Cooldown: time.Hour, // one trip per signal: the decay check must stay clean
			Boost:    time.Second,
		},
	})
	in := dyntc.NewFaultInjector(42)
	s := newServer(dyntc.BatchOptions{Faults: in, Obs: b})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
	})

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 9}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	leaf := growSome(t, base, 1, 0)

	// Warm the flush-latency baseline well past the detector's warmup.
	for i := 0; i < 24; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": i}, 200, nil)
	}
	before := countSpans(t, ts.URL, "engine.flush")

	// The incident: the next two waves stall 60ms inside the engine.
	in.Add(dyntc.FaultRule{Site: "engine.wave", Latency: 60 * time.Millisecond, Times: 2})
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 100}, 200, nil)
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 101}, 200, nil)

	anoms := waitEvents(t, ts.URL, obs.EvAnomaly+"."+obs.SigEngineFlush, 1)
	ev := anoms[0]
	if got := fieldNum(t, ev, "value_ms"); got < 40 {
		t.Fatalf("anomaly value_ms = %v, want >= 40 (the injected stall)", got)
	}
	snap, ok := ev.Fields["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("anomaly event snapshot = %T, want the engine stats map", ev.Fields["snapshot"])
	}
	if _, ok := snap["flushes"]; !ok {
		t.Fatalf("anomaly snapshot missing engine stats: %v", snap)
	}
	var h struct {
		AnomalyActive bool `json:"anomaly_active"`
	}
	getStatus(t, ts.URL+"/v1/healthz", &h)
	if !h.AnomalyActive {
		t.Fatal("healthz anomaly_active = false inside the boost window")
	}

	// Boost: while the window is open every flush is span-sampled.
	for i := 0; i < 5; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 200 + i}, 200, nil)
	}
	during := countSpans(t, ts.URL, "engine.flush")
	if during < before+3 {
		t.Fatalf("boost sampling: %d flush spans before, %d after 5 boosted flushes (+2 slow waves)", before, during)
	}

	// Decay: past the deadline, traffic adds no flush spans.
	deadline := time.Unix(0, b.Boost().Deadline())
	time.Sleep(time.Until(deadline) + 50*time.Millisecond)
	after := countSpans(t, ts.URL, "engine.flush")
	for i := 0; i < 5; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 300 + i}, 200, nil)
	}
	if final := countSpans(t, ts.URL, "engine.flush"); final != after {
		t.Fatalf("boost decay: %d flush spans grew to %d after the window closed", after, final)
	}

	// One debug-bundle fetch carries the whole incident.
	var bundle struct {
		Role    string      `json:"role"`
		Proc    string      `json:"proc"`
		Metrics string      `json:"metrics"`
		Events  []obs.Event `json:"events"`
		Spans   []obs.Span  `json:"spans"`
		Anomaly struct {
			Trips  uint64 `json:"trips"`
			Active bool   `json:"active"`
		} `json:"anomaly"`
		Engine map[string]any `json:"engine"`
	}
	raw := getBytes(t, ts.URL+"/v1/debug/bundle", 200)
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("debug bundle is not parseable JSON: %v", err)
	}
	if bundle.Role != "leader" || bundle.Proc != "leader" {
		t.Fatalf("bundle role/proc = %q/%q", bundle.Role, bundle.Proc)
	}
	if bundle.Anomaly.Trips < 1 {
		t.Fatalf("bundle anomaly.trips = %d, want >= 1", bundle.Anomaly.Trips)
	}
	if !strings.Contains(bundle.Metrics, "dyntc_events_total") {
		t.Fatal("bundle metrics snapshot missing dyntc_events_total")
	}
	foundAnom, foundSlowSpan := false, false
	for _, e := range bundle.Events {
		if e.Type == obs.EvAnomaly+"."+obs.SigEngineFlush {
			foundAnom = true
		}
	}
	for _, sp := range bundle.Spans {
		// The second faulted wave flushed inside the boost window: a
		// densely-traced slow wave must be in the bundle.
		if sp.Name == "engine.flush" && sp.Dur >= int64(40*time.Millisecond) {
			foundSlowSpan = true
		}
	}
	if !foundAnom {
		t.Fatal("bundle events missing the anomaly event")
	}
	if !foundSlowSpan {
		t.Fatal("bundle spans missing a densely-traced slow flush")
	}
	if _, ok := bundle.Engine["flushes"]; !ok {
		t.Fatalf("bundle missing engine stats: %v", bundle.Engine)
	}
}

// TestIncidentFlightRecorderFollower runs the replication half of the
// drill: a transport latency fault slows the follower's tailing, the
// replication-lag detectors trip, and the follower's own journal,
// healthz and debug bundle carry the incident.
func TestIncidentFlightRecorderFollower(t *testing.T) {
	// The leader must span-sample every flush: only span-sampled waves
	// carry the SealedAt/AppendedAt stamps the follower's lag detectors
	// feed on.
	s := newServer(dyntc.BatchOptions{Obs: testObs(t, dyntc.ObsConfig{Proc: "leader", TraceSample: 1})})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
	})
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 13}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	leaf := growSome(t, base, 2, 0)

	fb := testObs(t, dyntc.ObsConfig{
		Proc: "follower",
		Anomaly: obs.AnomalyConfig{
			Warmup:   8,
			Window:   16,
			MinNS:    float64(40 * time.Millisecond),
			Cooldown: time.Hour,
			Boost:    time.Second,
		},
	})
	fin := dyntc.NewFaultInjector(9)
	fo := newServer(dyntc.BatchOptions{Obs: fb})
	fo.follow(ts.URL, 2*time.Millisecond)
	fo.setFaults(fin, 9)
	foSrv := serveFollower(t, fo)

	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq >= 2
	})

	// Warm the lag baselines with live traffic: every wave the follower
	// tails feeds replica.fetch and replica.apply once. (Waves already in
	// the bootstrap snapshot never reach the detectors.)
	for i := 0; i < 12; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": i}, 200, nil)
		time.Sleep(4 * time.Millisecond)
	}
	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq >= 14
	})

	// The incident: every leader RPC stalls 120ms while fresh waves keep
	// landing, so tails arrive far behind their append stamps.
	fin.Add(dyntc.FaultRule{Site: "follower.rpc", Latency: 120 * time.Millisecond, Times: 10})
	for i := 0; i < 6; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": i}, 200, nil)
		time.Sleep(10 * time.Millisecond)
	}

	anoms := waitEvents(t, foSrv.URL, obs.EvAnomaly+".replica.", 1)
	if !strings.HasPrefix(anoms[0].Type, obs.EvAnomaly+".replica.") {
		t.Fatalf("anomaly type = %q", anoms[0].Type)
	}
	if _, ok := anoms[0].Fields["snapshot"].(map[string]any); !ok {
		t.Fatalf("replica anomaly missing snapshot: %v", anoms[0].Fields)
	}
	if fb.Anomaly().Trips() < 1 {
		t.Fatalf("follower recorder trips = %d, want >= 1", fb.Anomaly().Trips())
	}

	var bundle struct {
		Role    string `json:"role"`
		Anomaly struct {
			Trips uint64 `json:"trips"`
		} `json:"anomaly"`
	}
	raw := getBytes(t, foSrv.URL+"/v1/debug/bundle", 200)
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("follower debug bundle is not parseable JSON: %v", err)
	}
	if bundle.Role != "follower" || bundle.Anomaly.Trips < 1 {
		t.Fatalf("follower bundle = %+v", bundle)
	}
	var h struct {
		LastEvent     *obs.Event `json:"last_event"`
		AnomalyActive *bool      `json:"anomaly_active"`
	}
	getStatus(t, foSrv.URL+"/v1/healthz", &h)
	if h.LastEvent == nil || h.AnomalyActive == nil {
		t.Fatal("follower healthz missing last_event / anomaly_active")
	}
}
