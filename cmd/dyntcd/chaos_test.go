package main

// Chaos suite: deterministic fault schedules driving the failure paths
// end to end — leader killed mid-traffic with a follower promoted over
// it (epoch fencing must reject the demoted leader's late writes, and
// the promoted state must be byte-identical to a sequential replay of
// the old leader's WAL), a follower partitioned from its leader serving
// degraded reads with a staleness bound, and a leader restarting over a
// torn WAL tail. Everything here runs in-process so the suite is
// -race-clean and seed-reproducible.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dyntc"
)

// postStatus posts a JSON body and returns the status, decoding the
// response into out when non-nil. Unlike call it never fails the test on
// status, so chaos traffic can observe the 403 fence instead of dying.
func postStatus(t *testing.T, url string, body any, out any) int {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		_ = json.Unmarshal(data, out)
	}
	return resp.StatusCode
}

// getStatus fetches url and returns (status, headers), decoding the body
// into out when non-nil.
func getStatus(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		_ = json.Unmarshal(data, out)
	}
	return resp.StatusCode, resp.Header
}

// setLeafUntilRefused sets leaf of the tree at base to 0, step, 2·step, …,
// one wave per request, until a request fails or is not answered 200
// (the fence's 403, or the server going away).
func setLeafUntilRefused(base string, leaf, step int) {
	for j := 0; ; j++ {
		enc, _ := json.Marshal(map[string]any{"leaf": leaf, "value": j * step})
		resp, err := http.Post(base+"/set-leaf", "application/json", bytes.NewReader(enc))
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return
		}
	}
}

// healthTrees is the per-tree slice shared by leader and follower
// /v1/healthz bodies (field names line up on both).
type healthTrees struct {
	Role  string `json:"role"`
	Trees []struct {
		Tree       uint64 `json:"tree"`
		AppliedSeq uint64 `json:"applied_seq"`
		Epoch      uint64 `json:"epoch"`
	} `json:"trees"`
	Degraded      bool  `json:"degraded"`
	ConsecErrs    int   `json:"consecutive_errors"`
	BackoffMS     int64 `json:"backoff_ms"`
	StalenessMS   int64 `json:"staleness_ms"`
	FencedAtEpoch int64 `json:"fenced_at_epoch"`
}

// waitHealthz polls url until cond is satisfied or the deadline passes.
func waitHealthz(t *testing.T, url string, cond func(status int, h healthTrees) bool) healthTrees {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h healthTrees
		status, _ := getStatus(t, url+"/v1/healthz", &h)
		if cond(status, h) {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz condition not reached; last: status=%d %+v", status, h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosFailover kills a leader mid-traffic: a follower tailing it
// (through a seeded latency fault on its RPC transport) is promoted to
// epoch 2, the demoted leader fences its late writes, and the promoted
// state is byte-identical to a sequential oracle that replays the old
// leader's genesis snapshot + WAL up to the promoted sequence and then
// promotes. Three seeds vary tree shape and fault timing.
func TestChaosFailover(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirL, dirF := t.TempDir(), t.TempDir()
			s := newServerWAL(dyntc.BatchOptions{}, dirL, 0)
			ts := httptest.NewServer(s.routes())
			var killOnce sync.Once
			kill := func() {
				killOnce.Do(func() {
					ts.Close()
					s.forest.Close()
					s.store.close() // flush buffered WAL appends for the oracle
				})
			}
			t.Cleanup(kill)

			var tr1, tr2 struct {
				Tree uint64 `json:"tree"`
			}
			call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": seed}, 201, &tr1)
			call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 5, "seed": seed + 10, "ring": "minplus"}, 201, &tr2)
			ids := []uint64{tr1.Tree, tr2.Tree}
			// Pre-failover history, plus one node per tree that stays a
			// leaf forever: live traffic set-leafs it, one wave per call.
			leafs := map[uint64]int{}
			for _, id := range ids {
				leafs[id] = growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, id), 8, 0)
			}

			// Follower tails through a seeded latency fault (20% of leader
			// RPCs stall 1ms) — chaos without losing determinism.
			in := dyntc.NewFaultInjector(seed)
			in.Add(dyntc.FaultRule{Site: "follower.rpc", P: 0.2, Latency: time.Millisecond})
			fo := newServerWAL(dyntc.BatchOptions{}, dirF, 0)
			fo.follow(ts.URL, 2*time.Millisecond)
			fo.setFaults(in, seed)
			foSrv := serveFollower(t, fo)

			// Live traffic against the old leader until it stops accepting
			// writes (the fence's 403, or the shutdown).
			var wg sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func(i int, id uint64) {
					defer wg.Done()
					setLeafUntilRefused(fmt.Sprintf("%s/v1/trees/%d", ts.URL, id), leafs[id], i+2)
				}(i, id)
			}

			// Promote once both replicas are past the pre-traffic history.
			waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
				if len(h.Trees) != 2 {
					return false
				}
				for _, th := range h.Trees {
					if th.AppliedSeq < 8 {
						return false
					}
				}
				return true
			})
			var promoted struct {
				Promoted   bool   `json:"promoted"`
				Trees      int    `json:"trees"`
				Epoch      uint64 `json:"epoch"`
				FailoverMS int64  `json:"failover_ms"`
			}
			if status := postStatus(t, foSrv.URL+"/v1/promote", nil, &promoted); status != 200 {
				t.Fatalf("promote: status %d", status)
			}
			if !promoted.Promoted || promoted.Trees != 2 || promoted.Epoch != 2 {
				t.Fatalf("promote response: %+v, want 2 trees at epoch 2", promoted)
			}
			// This process is a leader now, and leaders don't promote.
			if status := postStatus(t, foSrv.URL+"/v1/promote", nil, nil); status != 404 {
				t.Fatalf("second promote: status %d, want 404", status)
			}

			// The async demote lands and the old leader fences itself.
			waitHealthz(t, ts.URL, func(status int, h healthTrees) bool {
				return status == 503 && h.FencedAtEpoch == 2
			})
			wg.Wait() // traffic saw the fence (or shutdown) and stopped

			// Demoted leader: writes 403, reads still served.
			fenced := postStatus(t, fmt.Sprintf("%s/v1/trees/%d/set-leaf", ts.URL, ids[0]),
				map[string]any{"leaf": leafs[ids[0]], "value": 1}, nil)
			if fenced != 403 {
				t.Fatalf("write on demoted leader: status %d, want 403", fenced)
			}
			if status, _ := getStatus(t, fmt.Sprintf("%s/v1/trees/%d/value", ts.URL, ids[0]), nil); status != 200 {
				t.Fatalf("read on demoted leader: status %d, want 200", status)
			}
			if status, _ := getStatus(t, fmt.Sprintf("%s/v1/trees/%d/log?since=0", ts.URL, ids[0]), nil); status != 200 {
				t.Fatalf("log drain on demoted leader: status %d, want 200", status)
			}
			// Demote with a stale epoch is rejected.
			if status := postStatus(t, ts.URL+"/v1/demote", map[string]any{"epoch": 1}, nil); status != 409 {
				t.Fatalf("stale demote: status %d, want 409", status)
			}
			// A higher epoch seen on a log fetch raises the fence further.
			req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/trees/%d/log?since=0", ts.URL, ids[0]), nil)
			req.Header.Set("X-Dyntc-Epoch", "3")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			waitHealthz(t, ts.URL, func(status int, h healthTrees) bool {
				return h.FencedAtEpoch == 3
			})

			// New leader: role flipped, every tree at epoch 2. Record the
			// promoted sequences and snapshot bytes before any new writes.
			h := waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
				return status == 200 && h.Role == "leader"
			})
			S := map[uint64]uint64{}
			for _, th := range h.Trees {
				if th.Epoch != 2 {
					t.Fatalf("tree %d: epoch %d after promotion, want 2", th.Tree, th.Epoch)
				}
				S[th.Tree] = th.AppliedSeq
			}
			snapNew := map[uint64][]byte{}
			for _, id := range ids {
				snapNew[id] = getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", foSrv.URL, id), 200)
			}

			// Kill the old leader for real and replay its WAL sequentially:
			// genesis snapshot + waves up to the promoted sequence, then a
			// promotion, must reproduce the new leader byte for byte.
			kill()
			for _, id := range ids {
				gen, err := os.ReadFile(filepath.Join(dirL, fmt.Sprintf("tree-%d.snap", id)))
				if err != nil {
					t.Fatal(err)
				}
				waves, _, err := dyntc.RecoverWaveLog(filepath.Join(dirL, fmt.Sprintf("tree-%d.wal", id)))
				if err != nil {
					t.Fatal(err)
				}
				oracle, oseq := replayWAL(t, gen, waves, S[id])
				if oseq != S[id] {
					t.Fatalf("tree %d: oracle reached seq %d, want %d", id, oseq, S[id])
				}
				// Promotion: the next epoch, re-serialized at the promoted
				// sequence.
				oracle.AdoptEpoch(oracle.Epoch() + 1)
				if oracle.Epoch() != 2 {
					t.Fatalf("tree %d: oracle promoted to epoch %d, want 2", id, oracle.Epoch())
				}
				osnap, err := oracle.Snapshot(oseq)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(osnap, snapNew[id]) {
					t.Fatalf("tree %d: promoted state differs from sequential replay oracle", id)
				}
				persisted, err := os.ReadFile(filepath.Join(dirF, fmt.Sprintf("tree-%d.snap", id)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(persisted, osnap) {
					t.Fatalf("tree %d: persisted promotion anchor differs from oracle", id)
				}
			}

			// The new leader serves writes at epoch 2 and logs them past
			// the promoted sequence.
			for i, id := range ids {
				base := fmt.Sprintf("%s/v1/trees/%d", foSrv.URL, id)
				call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leafs[id], "value": 999 + i}, 200, nil)
				var tail struct {
					Waves   []dyntc.Wave `json:"waves"`
					LastSeq uint64       `json:"last_seq"`
				}
				call(t, "GET", fmt.Sprintf("%s/log?since=%d", base, S[id]), nil, 200, &tail)
				if tail.LastSeq != S[id]+1 || len(tail.Waves) != 1 {
					t.Fatalf("tree %d: post-failover log last_seq=%d waves=%d, want %d/1", id, tail.LastSeq, len(tail.Waves), S[id]+1)
				}
				if ep := tail.Waves[0].EpochOrDefault(); ep != 2 {
					t.Fatalf("tree %d: post-failover wave at epoch %d, want 2", id, ep)
				}
			}
		})
	}
}

// TestChaosDegradedFollower partitions a follower from its leader with
// an injected RPC fault: after the consecutive-error threshold the
// follower reports degraded (healthz 503, backoff > 0) but keeps serving
// reads, stamping them with its staleness bound.
func TestChaosDegradedFollower(t *testing.T) {
	ts, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 7}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	growSome(t, base, 5, 0)

	in := dyntc.NewFaultInjector(7)
	fo := newServer(dyntc.BatchOptions{})
	fo.follow(ts.URL, 2*time.Millisecond)
	fo.setFaults(in, 7)
	foSrv := serveFollower(t, fo)

	// Converge first, then drop the partition in.
	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq == 5
	})
	in.Add(dyntc.FaultRule{Site: "follower.rpc", Err: dyntc.ErrFaultInjected})

	h := waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return status == 503
	})
	if !h.Degraded || h.ConsecErrs < degradedErrThreshold || h.BackoffMS <= 0 {
		t.Fatalf("degraded healthz: %+v, want degraded with >=%d errors and backoff", h, degradedErrThreshold)
	}

	// Reads still flow, marked with the staleness bound.
	var v struct {
		Value int64 `json:"value"`
	}
	status, hdr := getStatus(t, fmt.Sprintf("%s/v1/trees/%d/value", foSrv.URL, created.Tree), &v)
	if status != 200 {
		t.Fatalf("degraded read: status %d, want 200", status)
	}
	if hdr.Get("X-Dyntc-Staleness-Ms") == "" {
		t.Fatal("degraded read missing X-Dyntc-Staleness-Ms header")
	}
}

// TestChaosLeaderStartupRecovery restarts a WAL-backed leader whose log
// lost half a record (torn tail, e.g. a crash mid-append): recovery must
// truncate the tear, replay the surviving prefix to the same state a
// sequential oracle reaches, re-anchor, and accept new writes that
// continue the wave sequence.
func TestChaosLeaderStartupRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	ts := httptest.NewServer(s.routes())
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 11}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	leaf9 := growSome(t, base, 9, 0)
	growSome(t, base, 1, leaf9) // wave 10, about to be torn off
	ts.Close()
	s.forest.Close()
	s.store.close()

	genesis, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("tree-%d.snap", created.Tree)))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, fmt.Sprintf("tree-%d.wal", created.Tree))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle from the intact log: waves 1..9 are the expected survivors.
	intact := filepath.Join(t.TempDir(), "intact.wal")
	if err := os.WriteFile(intact, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	waves, dropped, err := dyntc.RecoverWaveLog(intact)
	if err != nil || dropped != 0 || len(waves) != 10 {
		t.Fatalf("intact wal: %d waves, %d dropped, err=%v; want 10/0/nil", len(waves), dropped, err)
	}
	oracle, oseq := replayWAL(t, genesis, waves, 9)

	// Tear the tail mid-record and restart.
	if err := os.WriteFile(walPath, wal[:len(wal)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	if err := s2.store.recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.routes())
	t.Cleanup(func() {
		ts2.Close()
		s2.forest.Close()
		s2.store.close()
	})

	var h healthTrees
	if status, _ := getStatus(t, ts2.URL+"/v1/healthz", &h); status != 200 {
		t.Fatalf("healthz after recovery: %d", status)
	}
	if len(h.Trees) != 1 || h.Trees[0].AppliedSeq != 9 {
		t.Fatalf("recovered at %+v, want applied_seq 9", h.Trees)
	}
	var v struct {
		Value int64 `json:"value"`
	}
	call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", ts2.URL, created.Tree), nil, 200, &v)
	if v.Value != oracle.Root() {
		t.Fatalf("recovered root %d, oracle %d", v.Value, oracle.Root())
	}
	osnap, err := oracle.Snapshot(oseq)
	if err != nil {
		t.Fatal(err)
	}
	rsnap := getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", ts2.URL, created.Tree), 200)
	if !bytes.Equal(osnap, rsnap) {
		t.Fatal("recovered state differs from oracle replay of the surviving prefix")
	}

	// The torn wave 10 grew leaf9, so after truncation leaf9 is a leaf
	// again; the recovered tree must accept writes continuing the
	// sequence where the tear left it.
	call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/set-leaf", ts2.URL, created.Tree),
		map[string]any{"leaf": leaf9, "value": 42}, 200, nil)
	var tail struct {
		LastSeq uint64 `json:"last_seq"`
	}
	call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/log?since=9", ts2.URL, created.Tree), nil, 200, &tail)
	if tail.LastSeq != 10 {
		t.Fatalf("post-recovery write logged at %d, want 10", tail.LastSeq)
	}
}

// TestChaosCleanRestartIdentity is the torn test's control: a graceful
// shutdown and recovery must land on the exact pre-shutdown state.
func TestChaosCleanRestartIdentity(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	ts := httptest.NewServer(s.routes())
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 3, "seed": 13, "ring": "minplus"}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	growSome(t, base, 6, 0)
	final := getBytes(t, base+"/snapshot", 200)
	ts.Close()
	s.forest.Close()
	s.store.close()

	s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	if err := s2.store.recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.routes())
	t.Cleanup(func() {
		ts2.Close()
		s2.forest.Close()
		s2.store.close()
	})
	recovered := getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", ts2.URL, created.Tree), 200)
	if !bytes.Equal(recovered, final) {
		t.Fatal("clean restart did not reproduce the pre-shutdown snapshot")
	}
}

// TestReplicaBirthIsRetryable: a follower whose WAL directory is missing
// cannot adopt a bootstrapped replica, so it serves none, logs the
// bootstrap error and keeps no file, like a failed create. Once the
// directory exists, the next poll round bootstraps the replica, which
// catches up, and a promotion succeeds at epoch 2.
func TestReplicaBirthIsRetryable(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1, "seed": 8}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree)
	leaf := growSome(t, base, 5, 0)

	// The wal dir's parent is absent, so every replica birth fails.
	walDir := filepath.Join(t.TempDir(), "missing", "wal")
	fo := newServerWAL(dyntc.BatchOptions{}, walDir, 0)
	f := fo.follow(leaderSrv.URL, 2*time.Millisecond)
	foSrv := httptest.NewServer(fo.routes())
	t.Cleanup(func() {
		foSrv.Close()
		fo.close()
	})
	h := &slogCapture{}
	old := slog.Default()
	slog.SetDefault(slog.New(h))
	for range 2 {
		if !f.syncOnce() {
			slog.SetDefault(old)
			t.Fatal("poll round failed")
		}
	}
	slog.SetDefault(old)
	if fails := h.messages("follower: bootstrap failed"); len(fails) != 2 || fails[0]["err"].String() == "" {
		t.Fatalf("bootstrap errors logged: %v, want one per round", fails)
	}
	if fo.forest.Len() != 0 || fo.store.get(created.Tree) != nil {
		t.Fatal("a replica whose birth failed is served")
	}
	call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", foSrv.URL, created.Tree), nil, 404, nil)

	// Fix the cause: the poll loop's next round bootstraps the replica,
	// which catches up with new leader waves.
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	f.start()
	leaf = growSome(t, base, 2, leaf)
	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return status == 200 && h.Role == "follower" &&
			len(h.Trees) == 1 && h.Trees[0].AppliedSeq == 7
	})
	var promoted struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
	}
	if status := postStatus(t, foSrv.URL+"/v1/promote", nil, &promoted); status != 200 {
		t.Fatalf("promote: status %d", status)
	}
	if !promoted.Promoted || promoted.Epoch != 2 {
		t.Fatalf("promote: %+v", promoted)
	}
	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return status == 200 && h.Role == "leader"
	})
	// The new leader serves writes at the new term.
	call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/set-leaf", foSrv.URL, created.Tree),
		map[string]any{"leaf": leaf, "value": 77}, 200, nil)
}

// TestPromoteDemotesThroughFollowerClient: promotion's demote call goes
// through the follower's client, so the client's timeout bounds it and
// it passes the follower.rpc fault site. With no poll loop running, a
// partition rule added just before POST /v1/promote fires only on the
// demote call, and the old leader, never told, stays unfenced.
func TestPromoteDemotesThroughFollowerClient(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 3}, 201, nil)

	in := dyntc.NewFaultInjector(5)
	fo := newServer(dyntc.BatchOptions{})
	f := fo.follow(leaderSrv.URL, time.Millisecond)
	fo.setFaults(in, 5)
	if !f.syncOnce() {
		t.Fatal("sync round failed")
	}
	foSrv := httptest.NewServer(fo.routes())
	t.Cleanup(func() {
		foSrv.Close()
		fo.close()
	})

	before := in.Firings("follower.rpc")
	in.Add(dyntc.FaultRule{Site: "follower.rpc", Err: dyntc.ErrFaultInjected})
	if status := postStatus(t, foSrv.URL+"/v1/promote", nil, nil); status != 200 {
		t.Fatalf("promote: status %d", status)
	}
	for deadline := time.Now().Add(5 * time.Second); in.Firings("follower.rpc") == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the demote call never passed the follower.rpc fault site")
		}
	}
	if status, _ := getStatus(t, leaderSrv.URL+"/v1/healthz", nil); status != 200 {
		t.Fatalf("old leader healthz: status %d, want 200 (the partitioned demote never landed)", status)
	}
}

// TestChaosFollowerRestartThenPromote kills a leader under live traffic,
// restarts its -wal-dir follower from the directory, and promotes it. The
// promoted state must be byte-identical to the replay oracle — the dead
// leader's genesis snapshot and WAL — at the follower's applied sequence,
// so no wave the follower applied is lost, and a further restart with no
// new write must still serve epoch 2.
func TestChaosFollowerRestartThenPromote(t *testing.T) {
	dirL, dirF := t.TempDir(), t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dirL, 0)
	ts := httptest.NewServer(s.routes())
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			ts.Close()
			s.forest.Close()
			s.store.close()
		})
	}
	t.Cleanup(kill)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 21}, 201, &created)
	id := created.Tree
	leaf := growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, id), 6, 0)

	fo := newServerWAL(dyntc.BatchOptions{}, dirF, 0)
	f := fo.follow(ts.URL, 2*time.Millisecond)
	f.start()
	t.Cleanup(fo.close)

	// Live traffic until the leader dies.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		setLeafUntilRefused(fmt.Sprintf("%s/v1/trees/%d", ts.URL, id), leaf, 1)
	}()
	en, _ := fo.forest.Get(id)
	for deadline := time.Now().Add(10 * time.Second); en == nil || en.AppliedSeq() < 16; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower did not apply live traffic")
		}
		en, _ = fo.forest.Get(id)
	}
	kill()
	wg.Wait()
	// Stop the follower as a kill would: its poll loop ends, its store is
	// never closed before the restart.
	f.halt()
	applied := en.AppliedSeq()

	fo2 := newServerWAL(dyntc.BatchOptions{}, dirF, 0)
	if err := fo2.store.recover(); err != nil {
		t.Fatal(err)
	}
	fo2.follow(ts.URL, 2*time.Millisecond)
	fo2Srv := httptest.NewServer(fo2.routes())
	t.Cleanup(fo2Srv.Close)
	var promoted struct {
		Trees int    `json:"trees"`
		Epoch uint64 `json:"epoch"`
	}
	if status := postStatus(t, fo2Srv.URL+"/v1/promote", nil, &promoted); status != 200 {
		t.Fatalf("promote: status %d", status)
	}
	if promoted.Trees != 1 || promoted.Epoch != 2 {
		t.Fatalf("promote: %+v, want 1 tree at epoch 2", promoted)
	}
	en2, ok := fo2.forest.Get(id)
	if !ok || en2.AppliedSeq() != applied {
		t.Fatalf("restarted follower (serving %v) not at its applied seq %d", ok, applied)
	}
	got, err := en2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	genesis, err := os.ReadFile(filepath.Join(dirL, fmt.Sprintf("tree-%d.snap", id)))
	if err != nil {
		t.Fatal(err)
	}
	waves, _, err := dyntc.RecoverWaveLog(filepath.Join(dirL, fmt.Sprintf("tree-%d.wal", id)))
	if err != nil {
		t.Fatal(err)
	}
	oracle, oseq := replayWAL(t, genesis, waves, applied)
	oracle.AdoptEpoch(2)
	osnap, err := oracle.Snapshot(oseq)
	if err != nil {
		t.Fatal(err)
	}
	if oseq != applied || !bytes.Equal(got, osnap) {
		t.Fatalf("promoted state at seq %d differs from the replay oracle at %d", applied, oseq)
	}

	fo2Srv.Close()
	fo2.close()
	fo3 := newServerWAL(dyntc.BatchOptions{}, dirF, 0)
	if err := fo3.store.recover(); err != nil {
		t.Fatal(err)
	}
	defer fo3.close()
	en3, ok := fo3.forest.Get(id)
	if !ok || en3.Epoch() != 2 || en3.AppliedSeq() != applied {
		t.Fatalf("restart after promotion: served %v, want epoch 2 at seq %d", ok, applied)
	}
	if again, _ := en3.Snapshot(); !bytes.Equal(again, osnap) {
		t.Fatal("restart after promotion differs from the promoted state")
	}
}
