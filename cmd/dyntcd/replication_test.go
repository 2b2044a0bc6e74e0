package main

// Tests for the durability & replication surface: snapshot GET/PUT, the
// wave-log endpoint, /v1/healthz, and the leader→follower catch-up smoke
// (an in-process leader and follower converging under live traffic).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// growSome issues n grows against tree id, always expanding the latest
// left leaf, and returns the last response.
func growSome(t *testing.T, base string, n int, leaf int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		var grown struct {
			Left  int `json:"left"`
			Right int `json:"right"`
		}
		call(t, "POST", base+"/grow", map[string]any{"leaf": leaf, "op": "add", "left": i, "right": i + 1}, 200, &grown)
		leaf = grown.Left
	}
	return leaf
}

// replayWAL is the sequential replay oracle: snap restored with
// dyntc.RestoreExpr, then every wave past the snapshot's sequence, up to
// upto, applied in order with Expr.ApplyWave. It returns the replica and
// the sequence it reached.
func replayWAL(t *testing.T, snap []byte, waves []dyntc.Wave, upto uint64) (*dyntc.Expr, uint64) {
	t.Helper()
	e, seq, err := dyntc.RestoreExpr(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		if w.Seq <= seq || w.Seq > upto {
			continue
		}
		if w.Seq != seq+1 {
			t.Fatalf("replay: at %d, got wave %d", seq, w.Seq)
		}
		if err := e.ApplyWave(w); err != nil {
			t.Fatalf("replay wave %d: %v", w.Seq, err)
		}
		seq = w.Seq
	}
	return e, seq
}

// serveFollower starts s's poll loop and serves its routes; cleanup
// stops the listener, then the loop, the engines and any promoted logs.
func serveFollower(t *testing.T, s *server) *httptest.Server {
	t.Helper()
	s.following.Load().start()
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return ts
}

func getBytes(t *testing.T, url string, wantStatus int) []byte {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, data)
	}
	return data
}

// putBytes PUTs a raw body, as `curl --data-binary` does, and decodes
// the JSON response into out.
func putBytes(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest("PUT", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("PUT %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("PUT %s: decode: %v", url, err)
		}
	}
}

func TestSnapshotLogEndpoints(t *testing.T) {
	ts, _ := startTestServer(t)

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 9}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	lastLeaf := growSome(t, base, 8, 0)

	// Wave log: 8 grows = 8 mutating waves (sequential client).
	var tail struct {
		Waves   []dyntc.Wave `json:"waves"`
		LastSeq uint64       `json:"last_seq"`
	}
	call(t, "GET", base+"/log?since=0", nil, 200, &tail)
	if tail.LastSeq != 8 || len(tail.Waves) != 8 {
		t.Fatalf("log: last_seq=%d waves=%d, want 8/8", tail.LastSeq, len(tail.Waves))
	}
	for i, w := range tail.Waves {
		if w.Seq != uint64(i+1) || !w.Verify() {
			t.Fatalf("wave %d: seq=%d verify=%v", i, w.Seq, w.Verify())
		}
	}
	call(t, "GET", base+"/log?since=6", nil, 200, &tail)
	if len(tail.Waves) != 2 {
		t.Fatalf("log since=6: %d waves, want 2", len(tail.Waves))
	}

	// Snapshot → restore under a fresh id → equal state.
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot Content-Type %q, want application/octet-stream", ct)
	}
	snap := getBytes(t, base+"/snapshot", 200)
	var restored struct {
		Tree uint64 `json:"tree"`
		Seq  uint64 `json:"seq"`
	}
	putBytes(t, ts.URL+"/v1/trees/77/snapshot", snap, 201, &restored)
	if restored.Seq != 8 {
		t.Fatalf("restored seq = %d, want 8", restored.Seq)
	}
	var v1, v2 struct {
		Value int64 `json:"value"`
	}
	call(t, "GET", base+"/value", nil, 200, &v1)
	call(t, "GET", ts.URL+"/v1/trees/77/value", nil, 200, &v2)
	if v1.Value != v2.Value {
		t.Fatalf("restored root %d != original %d", v2.Value, v1.Value)
	}
	// The restored tree serves writes and logs them from its own seq (its
	// node IDs are the leader's, so the leader's last leaf id works).
	growSome(t, ts.URL+"/v1/trees/77", 1, lastLeaf)
	var tail77 struct {
		LastSeq uint64 `json:"last_seq"`
	}
	call(t, "GET", ts.URL+"/v1/trees/77/log?since=8", nil, 200, &tail77)
	if tail77.LastSeq != 9 {
		t.Fatalf("restored tree log at %d, want 9", tail77.LastSeq)
	}
	// Restoring over a live id conflicts.
	putBytes(t, ts.URL+"/v1/trees/77/snapshot", snap, 409, nil)
	// A corrupt snapshot is rejected.
	putBytes(t, ts.URL+"/v1/trees/88/snapshot", []byte(`{"version":1}`), 400, nil)
	flipped := bytes.Clone(snap)
	flipped[len(flipped)/2] ^= 1
	putBytes(t, ts.URL+"/v1/trees/88/snapshot", flipped, 400, nil)

	// Healthz reports both trees' applied sequences.
	var health struct {
		OK    bool   `json:"ok"`
		Role  string `json:"role"`
		Trees []struct {
			Tree       uint64 `json:"tree"`
			AppliedSeq uint64 `json:"applied_seq"`
			LogSeq     uint64 `json:"log_seq"`
			QueueCap   int    `json:"queue_cap"`
		} `json:"trees"`
	}
	call(t, "GET", ts.URL+"/v1/healthz", nil, 200, &health)
	if !health.OK || health.Role != "leader" || len(health.Trees) != 2 {
		t.Fatalf("healthz: %+v", health)
	}
	for _, th := range health.Trees {
		want := uint64(8)
		if th.Tree == 77 {
			want = 9
		}
		if th.AppliedSeq != want || th.LogSeq != want {
			t.Fatalf("tree %d: applied=%d log=%d, want %d", th.Tree, th.AppliedSeq, th.LogSeq, want)
		}
		if th.QueueCap <= 0 {
			t.Fatalf("tree %d: queue_cap %d", th.Tree, th.QueueCap)
		}
	}
}

func TestLogTruncationGone(t *testing.T) {
	s := newServerWAL(dyntc.BatchOptions{}, "", 4) // tiny ring
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() { ts.Close(); s.forest.Close() })

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	growSome(t, base, 10, 0)

	var gone struct {
		Error   string `json:"error"`
		BaseSeq uint64 `json:"base_seq"`
	}
	call(t, "GET", base+"/log?since=0", nil, 410, &gone)
	if gone.BaseSeq != 7 {
		t.Fatalf("base_seq = %d, want 7 (10 waves, ring 4)", gone.BaseSeq)
	}
}

// TestFollowerCatchupSmoke is the CI convergence smoke: an in-process
// leader and follower, live traffic on two trees while the follower
// tails the log, then convergence asserted on roots, sequences, and the
// full snapshot bytes of every tree.
func TestFollowerCatchupSmoke(t *testing.T) {
	leaderSrv, _ := startTestServer(t)

	// Two trees with some pre-follower history.
	var tr1, tr2 struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1, "seed": 3}, 201, &tr1)
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 5, "seed": 4, "ring": "minplus"}, 201, &tr2)
	base1 := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, tr1.Tree)
	base2 := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, tr2.Tree)
	startLeaf := map[string]int{base1: growSome(t, base1, 5, 0), base2: 0}

	// Follower starts mid-history and polls fast.
	fo := newServer(dyntc.BatchOptions{})
	fo.follow(leaderSrv.URL, 2*time.Millisecond)
	foSrv := serveFollower(t, fo)

	// Live traffic while the follower tails.
	var wg sync.WaitGroup
	for i, base := range []string{base1, base2} {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			leaf := growSome(t, base, 20, startLeaf[base])
			for j := 0; j < 10; j++ {
				call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": j * (i + 2)}, 200, nil)
			}
		}(i, base)
	}
	wg.Wait()

	// Wait for convergence: the leader's traffic is done, so its applied
	// sequences are final; the follower must reach them exactly.
	type healthResp struct {
		Trees []struct {
			Tree       uint64 `json:"tree"`
			AppliedSeq uint64 `json:"applied_seq"`
			Lag        uint64 `json:"lag"`
			LastError  string `json:"last_error"`
		} `json:"trees"`
	}
	var leaderHealth healthResp
	call(t, "GET", leaderSrv.URL+"/v1/healthz", nil, 200, &leaderHealth)
	want := map[uint64]uint64{}
	for _, th := range leaderHealth.Trees {
		want[th.Tree] = th.AppliedSeq
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health healthResp
		call(t, "GET", foSrv.URL+"/v1/healthz", nil, 200, &health)
		caught := len(health.Trees) == 2
		for _, th := range health.Trees {
			if th.AppliedSeq != want[th.Tree] {
				caught = false
			}
		}
		if caught {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge: want %v, have %+v", want, health)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Roots and snapshot bytes must match tree by tree.
	for _, id := range []uint64{tr1.Tree, tr2.Tree} {
		var lv, fv struct {
			Value int64 `json:"value"`
		}
		call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", leaderSrv.URL, id), nil, 200, &lv)
		call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", foSrv.URL, id), nil, 200, &fv)
		if lv.Value != fv.Value {
			t.Fatalf("tree %d: leader root %d, follower %d", id, lv.Value, fv.Value)
		}
		lsnap := getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", leaderSrv.URL, id), 200)
		fsnap := getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", foSrv.URL, id), 200)
		if !bytes.Equal(lsnap, fsnap) {
			t.Fatalf("tree %d: follower snapshot differs from leader's", id)
		}
	}

	// Writes on the follower are rejected.
	call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/grow", foSrv.URL, tr1.Tree),
		map[string]any{"leaf": 0, "op": "add", "left": 1, "right": 2}, 403, nil)
}

// TestWALPersistsAcrossRestart pins the durable path: a server with a WAL
// directory logs every wave to disk; a fresh process (server) replays the
// WAL into a restored snapshot and reaches the same state.
func TestWALPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	ts := httptest.NewServer(s.routes())

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 6}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	leaf := growSome(t, base, 6, 0)
	snap0 := getBytes(t, base+"/snapshot", 200) // snapshot at seq 6
	growSome(t, base, 3, leaf)                  // three more waves hit only the WAL tail
	var finalRoot struct {
		Value int64 `json:"value"`
	}
	call(t, "GET", base+"/value", nil, 200, &finalRoot)
	finalSnap := getBytes(t, base+"/snapshot", 200)
	ts.Close()
	s.forest.Close()
	s.store.close() // graceful shutdown flushes the WAL

	waves, err := replog.ReadWAL(fmt.Sprintf("%s/tree-%d.wal", dir, created.Tree))
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 9 {
		t.Fatalf("WAL has %d waves, want 9", len(waves))
	}
	fo, seq := replayWAL(t, snap0, waves, math.MaxUint64) // waves 1..6 predate snap0
	if seq != 9 {
		t.Fatalf("replayed to seq %d, want 9", seq)
	}
	if fo.Root() != finalRoot.Value {
		t.Fatalf("replayed root %d, want %d", fo.Root(), finalRoot.Value)
	}
	snap, err := fo.Snapshot(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, finalSnap) {
		t.Fatal("replayed state differs from pre-shutdown snapshot")
	}
}

// TestRecoverLegacySnapshotAnchor: startup recovery refuses a tree it
// cannot read, a JSON anchor (version 2, written before the binary
// codec) or a current anchor whose WAL is a JSONL one, and keeps its
// files aside byte for byte instead of serving the anchor alone. A later
// tree under the same id, by create or PUT, leaves the kept files as they
// are, and a JSON PUT body answers 400 and writes no anchor.
func TestRecoverLegacySnapshotAnchor(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "replog", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	put := func(h http.Handler, id int, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("PUT", fmt.Sprintf("/v1/trees/%d/snapshot", id), bytes.NewReader(body)))
		return rec.Code
	}
	// recoverDir starts a server on dir, checks that recovery served no
	// tree and journaled one refusal for tree id, and returns the handler.
	recoverDir := func(t *testing.T, dir string, id int) http.Handler {
		s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
		if err := s.store.recover(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.close)
		h := s.routes()
		if _, body := serveLocal(t, h, "GET", "/v1/trees", nil); !bytes.Contains(body, []byte(`"trees":[]`)) {
			t.Fatalf("recovery served a tree it cannot read: %s", body)
		}
		if evs := s.obs.Events().Query(obs.EvRecoverRefused, 0, 0); len(evs) != 1 || evs[0].Tree != uint64(id) {
			t.Fatalf("refusal events: %+v, want one for tree %d", evs, id)
		}
		return h
	}
	// keptAs checks that file name of dir is kept aside, once, as want.
	keptAs := func(t *testing.T, dir, name string, want []byte) {
		t.Helper()
		kept, _ := filepath.Glob(filepath.Join(dir, name+".*.old"))
		if len(kept) != 1 {
			t.Fatalf("%s kept aside as %v, want one file (dir: %v)", name, kept, dirNames(t, dir))
		}
		if got, err := os.ReadFile(kept[0]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: kept file changed (%d bytes, want %d; err %v)", kept[0], len(got), len(want), err)
		}
	}

	t.Run("json-anchor", func(t *testing.T) {
		v2 := fixture("snapshot-v2.json")
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "tree-5.snap"), v2, 0o644); err != nil {
			t.Fatal(err)
		}
		h := recoverDir(t, dir, 5)
		keptAs(t, dir, "tree-5.snap", v2)
		for id := 1; id <= 5; id++ {
			if status, body := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": id}); status != 201 {
				t.Fatalf("create %d: status %d: %s", id, status, body)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "tree-5.snap")); err != nil {
			t.Fatalf("the new tree 5 has no anchor: %v", err)
		}
		keptAs(t, dir, "tree-5.snap", v2)
		if status := put(h, 6, v2); status != 400 {
			t.Fatalf("PUT of a JSON snapshot: status %d, want 400", status)
		}
		if _, err := os.Stat(filepath.Join(dir, "tree-6.snap")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a refused PUT left an anchor (stat err %v)", err)
		}
	})

	t.Run("jsonl-wal", func(t *testing.T) {
		dir := t.TempDir()
		s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
		ts := httptest.NewServer(s.routes())
		call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, nil)
		growSome(t, ts.URL+"/v1/trees/1", 3, 0)
		ts.Close()
		s.close()
		anchor, err := os.ReadFile(filepath.Join(dir, "tree-1.snap"))
		if err != nil {
			t.Fatal(err)
		}
		jsonl := fixture("wal-legacy.jsonl")
		if err := os.WriteFile(filepath.Join(dir, "tree-1.wal"), jsonl, 0o644); err != nil {
			t.Fatal(err)
		}
		h := recoverDir(t, dir, 1)
		keptAs(t, dir, "tree-1.snap", anchor)
		keptAs(t, dir, "tree-1.wal", jsonl)
		if status := put(h, 1, anchor); status != 201 {
			t.Fatalf("PUT under the refused id: status %d, want 201", status)
		}
		keptAs(t, dir, "tree-1.snap", anchor)
		keptAs(t, dir, "tree-1.wal", jsonl)
	})
}

// TestFollowerRestartResumesFromWAL: a -wal-dir follower that stopped —
// abandoned without closing its store, as a killed process is, or shut
// down gracefully — recovers its replica from disk at the sequence it had
// applied, resumes the leader's log tail there without fetching a
// snapshot, and converges byte for byte. When the leader restarted too,
// its recovered log starts past the follower's sequence: the tail answers
// 410 and the follower catches up through one snapshot instead of
// stalling at its own sequence.
func TestFollowerRestartResumesFromWAL(t *testing.T) {
	const n, m = 6, 4
	for _, tc := range []struct {
		name                    string
		graceful, leaderRestart bool
	}{
		{"abandoned", false, false},
		{"graceful", true, false},
		{"leader-restarted", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirL := t.TempDir()
			leader := newServerWAL(dyntc.BatchOptions{}, dirL, 0)
			var serving atomic.Pointer[server]
			serving.Store(leader)
			var snapshots atomic.Int64
			counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot") {
					snapshots.Add(1)
				}
				serving.Load().routes().ServeHTTP(w, r)
			}))
			t.Cleanup(func() {
				counted.Close()
				serving.Load().close()
			})
			var created struct {
				Tree uint64 `json:"tree"`
			}
			call(t, "POST", counted.URL+"/v1/trees", map[string]any{"root": 1, "seed": 12}, 201, &created)
			base := fmt.Sprintf("%s/v1/trees/%d", counted.URL, created.Tree)

			dir := t.TempDir()
			fo := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			f := fo.follow(counted.URL, time.Millisecond)
			if !f.syncOnce() { // bootstrap at seq 0
				t.Fatal("bootstrap round failed")
			}
			leaf := growSome(t, base, n, 0)
			if !f.syncOnce() {
				t.Fatal("catch-up round failed")
			}
			if en, ok := fo.forest.Get(created.Tree); !ok || en.AppliedSeq() != n {
				t.Fatalf("follower did not catch up to seq %d", n)
			}
			if tc.graceful {
				fo.close()
			} else {
				t.Cleanup(fo.close)
			}

			growSome(t, base, m, leaf)
			if tc.leaderRestart {
				leader.close()
				l2 := newServerWAL(dyntc.BatchOptions{}, dirL, 0)
				if err := l2.store.recover(); err != nil {
					t.Fatal(err)
				}
				serving.Store(l2)
			}
			snapshots.Store(0)
			fo2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			if err := fo2.store.recover(); err != nil {
				t.Fatal(err)
			}
			defer fo2.close()
			en, ok := fo2.forest.Get(created.Tree)
			if !ok || en.AppliedSeq() != n {
				t.Fatalf("recovered replica (served %v) not at seq %d", ok, n)
			}
			if ls := fo2.store.get(created.Tree).log.LastSeq(); ls != n {
				t.Fatalf("recovered replica's log at seq %d, want %d", ls, n)
			}
			if !fo2.follow(counted.URL, time.Millisecond).syncOnce() {
				t.Fatal("resume round failed")
			}
			if got := en.AppliedSeq(); got != n+m {
				t.Fatalf("resumed replica at seq %d, want %d", got, n+m)
			}
			want := int64(0)
			if tc.leaderRestart {
				want = 1
			}
			if got := snapshots.Load(); got != want {
				t.Fatalf("the leader served %d snapshots to the restarted follower, want %d", got, want)
			}
			lsnap := getBytes(t, base+"/snapshot", 200)
			fsnap, err := en.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lsnap, fsnap) {
				t.Fatal("restarted follower's snapshot differs from the leader's")
			}
		})
	}
}

// TestChainedReplication: a follower serves its replicas' log tails from
// their rings, so a second follower can tail the first. Under live leader
// traffic the second ends byte-identical to the leader, having applied
// waves from the first's log, not only snapshots.
func TestChainedReplication(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 2, "seed": 14}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree)
	leaf := growSome(t, base, 4, 0)

	first := newServer(dyntc.BatchOptions{})
	first.follow(leaderSrv.URL, 2*time.Millisecond)
	firstSrv := serveFollower(t, first)
	second := newServer(dyntc.BatchOptions{})
	second.follow(firstSrv.URL, 2*time.Millisecond)
	secondSrv := serveFollower(t, second)
	waitHealthz(t, secondSrv.URL, func(_ int, h healthTrees) bool { return len(h.Trees) == 1 })

	leaf = growSome(t, base, 12, leaf)
	for i := 0; i < 8; i++ {
		call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": i}, 200, nil)
	}
	var lh healthTrees
	call(t, "GET", leaderSrv.URL+"/v1/healthz", nil, 200, &lh)
	want := lh.Trees[0].AppliedSeq
	waitHealthz(t, secondSrv.URL, func(_ int, h healthTrees) bool {
		return len(h.Trees) == 1 && h.Trees[0].AppliedSeq == want
	})
	if rep := second.following.Load().treeHealth(created.Tree, want); rep.Waves == 0 {
		t.Fatal("the second follower applied no wave from the first one's log")
	}
	lsnap := getBytes(t, base+"/snapshot", 200)
	ssnap := getBytes(t, fmt.Sprintf("%s/v1/trees/%d/snapshot", secondSrv.URL, created.Tree), 200)
	if !bytes.Equal(lsnap, ssnap) {
		t.Fatal("chained follower's snapshot differs from the leader's")
	}
}
