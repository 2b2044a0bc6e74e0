package main

// End-to-end tests for the lifecycle event journal: it must record
// failover, degradation and recovery in order.

import (
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
		LastEvent *obs.Event `json:"last_event"`
	}
	getStatus(t, ts.URL+"/v1/healthz", &h)
	if h.LastEvent == nil || h.LastEvent.Type != obs.EvDemote {
		t.Fatalf("demoted leader healthz last_event = %+v, want %s", h.LastEvent, obs.EvDemote)
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
