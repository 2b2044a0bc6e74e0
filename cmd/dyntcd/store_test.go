package main

// Tests for the durable store's rules: a failed birth leaves nothing on
// disk, recovery retires the WAL it replayed, and an acknowledged wave
// survives a crash at every WAL append and inside a compaction.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/prng"
	"dyntc/internal/replog"
)

// serveLocal runs one request through h in-process and returns the status
// and body.
func serveLocal(t *testing.T, h http.Handler, method, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.Bytes()
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names
}

// genesisSnapshot creates tree 1 from the create body req on a ring-only
// server and returns its snapshot at seq 0.
func genesisSnapshot(t *testing.T, req map[string]any) []byte {
	t.Helper()
	s := newServer(dyntc.BatchOptions{})
	defer s.forest.Close()
	h := s.routes()
	if status, _ := serveLocal(t, h, "POST", "/v1/trees", req); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	_, snap := serveLocal(t, h, "GET", "/v1/trees/1/snapshot", nil)
	return snap
}

// TestFailedBirthLeavesNothing: when a tree's WAL cannot be opened after
// its anchor was written (here tree-<id>.wal is a symlink into a missing
// directory), POST /v1/trees and PUT /v1/trees/{id}/snapshot answer 500,
// leave no tree-<id>.snap behind, and recovery does not serve the tree.
func TestFailedBirthLeavesNothing(t *testing.T) {
	genesis := genesisSnapshot(t, map[string]any{"root": 3})
	for _, tc := range []struct {
		route string
		id    int
		birth func(h http.Handler) int
	}{
		{"create", 1, func(h http.Handler) int {
			status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1})
			return status
		}},
		{"put-snapshot", 5, func(h http.Handler) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/trees/5/snapshot", bytes.NewReader(genesis)))
			return rec.Code
		}},
	} {
		t.Run(tc.route, func(t *testing.T) {
			dir := t.TempDir()
			wal := filepath.Join(dir, fmt.Sprintf("tree-%d.wal", tc.id))
			if err := os.Symlink(filepath.Join(t.TempDir(), "missing", "wal"), wal); err != nil {
				t.Fatal(err)
			}
			s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			if status := tc.birth(s.routes()); status != 500 {
				t.Fatalf("birth with an unopenable wal: status %d, want 500", status)
			}
			s.forest.Close()
			s.store.close()
			if snaps, _ := filepath.Glob(filepath.Join(dir, "tree-*.snap")); len(snaps) != 0 {
				t.Fatalf("failed birth left %v", snaps)
			}

			s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			if err := s2.store.recover(); err != nil {
				t.Fatal(err)
			}
			defer func() { s2.forest.Close(); s2.store.close() }()
			if status, _ := serveLocal(t, s2.routes(), "GET", fmt.Sprintf("/v1/trees/%d/value", tc.id), nil); status != 404 {
				t.Fatalf("tree %d after recovery: status %d, want 404", tc.id, status)
			}
		})
	}
}

// TestRestartRetiresReplayedWAL: a clean restart replays the WAL into the
// recovered tree and deletes it once the fresh anchor is durable, so
// three restarts leave exactly tree-1.snap and tree-1.wal. A restart
// whose replay stops at a gap keeps the WAL it could not finish as one
// tree-1.wal.<nanos>.old.
func TestRestartRetiresReplayedWAL(t *testing.T) {
	dir := t.TempDir()
	restart := func() *server {
		s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
		if err := s.store.recover(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	stop := func(s *server) { s.forest.Close(); s.store.close() }

	s := restart()
	h := s.routes()
	if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 5}); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	for i := 0; i < 3; i++ {
		serveLocal(t, h, "POST", "/v1/trees/1/set-leaf", map[string]any{"leaf": 0, "value": i})
	}
	stop(s)
	for i := 0; i < 3; i++ {
		s := restart()
		if status, _ := serveLocal(t, s.routes(), "POST", "/v1/trees/1/set-leaf",
			map[string]any{"leaf": 0, "value": 10 + i}); status != 200 {
			t.Fatalf("restart %d: write status %d", i, status)
		}
		stop(s)
		if got, want := dirNames(t, dir), []string{"tree-1.snap", "tree-1.wal"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after clean restart %d: %v, want %v", i+1, got, want)
		}
	}

	// Only wave 6 sits in the WAL now; anchor the tree at seq 0 again, so
	// replay meets a gap and stops.
	genesis := genesisSnapshot(t, map[string]any{"root": 1, "seed": 5})
	if err := os.WriteFile(filepath.Join(dir, "tree-1.snap"), genesis, 0o644); err != nil {
		t.Fatal(err)
	}
	gapped, err := os.ReadFile(filepath.Join(dir, "tree-1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	s = restart()
	if en, ok := s.forest.Get(1); !ok || en.AppliedSeq() != 0 {
		t.Fatal("replay past a gap: tree 1 should serve its anchor at seq 0")
	}
	stop(s)
	old, _ := filepath.Glob(filepath.Join(dir, "tree-1.wal.*.old"))
	if len(old) != 1 || len(dirNames(t, dir)) != 3 {
		t.Fatalf("after a gapped replay: %v, want the anchor pair and one .old", dirNames(t, dir))
	}
	if kept, err := os.ReadFile(old[0]); err != nil || !bytes.Equal(kept, gapped) {
		t.Fatalf("kept wal differs from the one replay stopped in (err %v)", err)
	}
}

// sweepOp is one request of the crash-point sweep's program, with a leaf
// that is live right after it.
type sweepOp struct {
	path string
	body map[string]any
	leaf int
}

// sweepProgram runs a seeded grow/set-leaf stream of n single-op waves on
// tree 1 of a fault-free ring-only server. It returns the requests, the
// tree's genesis snapshot and the waves they logged.
func sweepProgram(t *testing.T, n int) ([]sweepOp, []byte, []dyntc.Wave) {
	s := newServer(dyntc.BatchOptions{})
	defer s.forest.Close()
	h := s.routes()
	if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 9}); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	_, genesis := serveLocal(t, h, "GET", "/v1/trees/1/snapshot", nil)
	rng := prng.New(42)
	leaves := []int{0}
	prog := make([]sweepOp, n)
	for i := range prog {
		k := rng.Intn(len(leaves))
		op := sweepOp{path: "/v1/trees/1/set-leaf", body: map[string]any{"leaf": leaves[k], "value": i}, leaf: leaves[k]}
		if rng.Intn(2) == 0 {
			op.path = "/v1/trees/1/grow"
			op.body = map[string]any{"leaf": leaves[k], "op": []string{"add", "mul"}[i%2], "left": i, "right": i + 1}
		}
		status, body := serveLocal(t, h, "POST", op.path, op.body)
		if status != 200 {
			t.Fatalf("program op %d: status %d: %s", i, status, body)
		}
		var grown struct{ Left, Right *int }
		if err := json.Unmarshal(body, &grown); err == nil && grown.Left != nil {
			leaves[k] = *grown.Left
			leaves = append(leaves, *grown.Right)
			op.leaf = *grown.Left
		}
		prog[i] = op
	}
	var tail struct {
		Waves []dyntc.Wave `json:"waves"`
	}
	_, body := serveLocal(t, h, "GET", "/v1/trees/1/log?since=0", nil)
	if err := json.Unmarshal(body, &tail); err != nil || len(tail.Waves) != n {
		t.Fatalf("program log: %d waves, err %v; want %d", len(tail.Waves), err, n)
	}
	return prog, genesis, tail.Waves
}

// TestCrashPointSweep crashes the WAL append of wave N+1 for every N in
// 1..32, with and without compaction every 4 waves: the crash hook
// panics inside the wave tap, so the engine poisons itself and that wave
// is never acknowledged. A server recovered on the same directory must
// serve exactly the acknowledged waves — its applied seq equals their
// count and its snapshot is byte-identical to the sequential replay
// oracle. It then runs the rest of the program: its next write must
// continue the sequence, and with compaction on, its log, which starts
// mid-stream, compacts at least twice more. A third server recovered on
// the directory must match the oracle at the program's last wave.
func TestCrashPointSweep(t *testing.T) {
	const n = 40
	prog, genesis, waves := sweepProgram(t, n)
	final, fseq := replayWAL(t, genesis, waves, n)
	fsnap, err := final.Snapshot(fseq)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{0, 4} {
		for crashAt := 1; crashAt <= 32; crashAt++ {
			dir := t.TempDir()
			s := newServerWAL(dyntc.BatchOptions{}, dir, 8)
			s.store.compactEvery = every
			in, err := dyntc.FaultInjectorFromSpec(uint64(crashAt), fmt.Sprintf("wal.append:after=%d:crash:times=1", crashAt))
			if err != nil {
				t.Fatal(err)
			}
			s.setFaults(in, uint64(crashAt))
			h := s.routes()
			if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 9}); status != 201 {
				t.Fatalf("create: status %d", status)
			}
			acked := 0
			for _, op := range prog {
				if status, _ := serveLocal(t, h, "POST", op.path, op.body); status != 200 {
					break
				}
				acked++
			}
			// Abandon the crashed server. Closing it stops its compactor
			// before another server opens the directory; every wave it
			// logged already reached the OS, so closing adds no wave a
			// killed process would have lost.
			s.forest.Close()
			s.store.close()
			if acked != crashAt {
				t.Fatalf("every=%d crash after %d appends: %d waves acknowledged", every, crashAt, acked)
			}

			s2 := newServerWAL(dyntc.BatchOptions{}, dir, 8)
			s2.store.compactEvery = every
			if err := s2.store.recover(); err != nil {
				t.Fatal(err)
			}
			h2 := s2.routes()
			en, ok := s2.forest.Get(1)
			if !ok || en.AppliedSeq() != uint64(acked) {
				t.Fatalf("every=%d crash after %d: recovered tree 1 (served %v) at seq %d, want %d",
					every, crashAt, ok, en.AppliedSeq(), acked)
			}
			oracle, oseq := replayWAL(t, genesis, waves, uint64(acked))
			osnap, err := oracle.Snapshot(oseq)
			if err != nil {
				t.Fatal(err)
			}
			if _, got := serveLocal(t, h2, "GET", "/v1/trees/1/snapshot", nil); !bytes.Equal(got, osnap) {
				t.Fatalf("every=%d crash after %d: recovered state differs from the replay oracle", every, crashAt)
			}
			// Each compaction is awaited before the next write, so no kick
			// coalesces into another and every one journals an event.
			mark, _ := s2.obs.Events().LastEvent()
			compactions := 0
			for i := acked; i < n; i++ {
				if status, body := serveLocal(t, h2, "POST", prog[i].path, prog[i].body); status != 200 {
					t.Fatalf("every=%d crash after %d: program op %d status %d: %s", every, crashAt, i, status, body)
				}
				if i == acked {
					var tail struct {
						LastSeq uint64 `json:"last_seq"`
					}
					_, body := serveLocal(t, h2, "GET", fmt.Sprintf("/v1/trees/1/log?since=%d", acked), nil)
					if err := json.Unmarshal(body, &tail); err != nil || tail.LastSeq != uint64(acked)+1 {
						t.Fatalf("every=%d crash after %d: next write logged at %d, want %d", every, crashAt, tail.LastSeq, acked+1)
					}
				}
				if every > 0 && (i+1)%every == 0 {
					compactions++
					deadline := time.Now().Add(5 * time.Second)
					for len(s2.obs.Events().Query(obs.EvWALCompact, mark.Seq, 0)) < compactions {
						if time.Now().After(deadline) {
							t.Fatalf("every=%d crash after %d: compaction %d after recovery never ran", every, crashAt, compactions)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			if every > 0 && compactions < 2 {
				t.Fatalf("every=%d crash after %d: %d compactions after recovery, want >= 2", every, crashAt, compactions)
			}
			s2.forest.Close()
			s2.store.close()

			s3 := newServerWAL(dyntc.BatchOptions{}, dir, 8)
			s3.store.compactEvery = every
			if err := s3.store.recover(); err != nil {
				t.Fatal(err)
			}
			if en, ok := s3.forest.Get(1); !ok || en.AppliedSeq() != n {
				t.Fatalf("every=%d crash after %d: second recovery did not serve tree 1 at seq %d", every, crashAt, n)
			}
			if _, got := serveLocal(t, s3.routes(), "GET", "/v1/trees/1/snapshot", nil); !bytes.Equal(got, fsnap) {
				t.Fatalf("every=%d crash after %d: second recovery differs from the replay oracle at seq %d", every, crashAt, n)
			}
			s3.forest.Close()
			s3.store.close()
		}
	}
}

// TestCutWindowRecovers crashes a compaction between its steps: the
// barrier step (store.cut) runs alone, and the server is abandoned. A
// server recovered on the directory must serve every acknowledged wave —
// its snapshot byte-identical to the sequential replay oracle — and leave
// only the anchor and a fresh WAL. Three windows: the cut without its
// anchor; the anchor written but tree-1.wal.prev not yet deleted (replay
// skips all of it); and a second barrier over the tree-1.wal.prev of an
// anchor that was never written, which must leave that file unrenamed.
func TestCutWindowRecovers(t *testing.T) {
	const n = 12
	prog, genesis, waves := sweepProgram(t, n)
	oracle, oseq := replayWAL(t, genesis, waves, n)
	osnap, err := oracle.Snapshot(oseq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// window runs after the cut at wave 6 and returns the first
		// program op not yet run.
		window func(t *testing.T, s *server, anchor []byte) int
	}{
		{"cut-without-anchor", func(*testing.T, *server, []byte) int { return 6 }},
		{"prev-under-newer-anchor", func(t *testing.T, s *server, anchor []byte) int {
			if err := writeFileSync(s.store.file(1, ".snap"), anchor); err != nil {
				t.Fatal(err)
			}
			return 6
		}},
		{"prev-survives-failed-anchor", func(t *testing.T, s *server, _ []byte) int {
			prev := s.store.file(1, ".wal.prev")
			before, err := os.ReadFile(prev)
			if err != nil {
				t.Fatal(err)
			}
			runProgram(t, s.routes(), prog[6:9])
			en, _ := s.forest.Get(1)
			if _, err := s.store.cut(1, en, s.store.get(1).log); err != nil {
				t.Fatal(err)
			}
			if after, err := os.ReadFile(prev); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("the second barrier replaced tree-1.wal.prev (err %v)", err)
			}
			if ws, err := replog.ReadWAL(s.store.file(1, ".wal")); err != nil || len(ws) != 3 || ws[0].Seq != 7 {
				t.Fatalf("tree-1.wal after the second barrier: %d waves (err %v), want 7..9", len(ws), err)
			}
			return 9
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			h := s.routes()
			if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 9}); status != 201 {
				t.Fatalf("create: status %d", status)
			}
			runProgram(t, h, prog[:6])
			en, _ := s.forest.Get(1)
			anchor, err := s.store.cut(1, en, s.store.get(1).log)
			if err != nil {
				t.Fatal(err)
			}
			if ws, err := replog.ReadWAL(s.store.file(1, ".wal.prev")); err != nil || len(ws) != 6 || ws[0].Seq != 1 {
				t.Fatalf("tree-1.wal.prev after the cut: %d waves (err %v), want 1..6", len(ws), err)
			}
			runProgram(t, h, prog[tc.window(t, s, anchor):])
			s.forest.Close()
			s.store.close()

			s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
			if err := s2.store.recover(); err != nil {
				t.Fatal(err)
			}
			defer func() { s2.forest.Close(); s2.store.close() }()
			en2, ok := s2.forest.Get(1)
			if !ok || en2.AppliedSeq() != n {
				t.Fatalf("recovered tree 1 (served %v) not at seq %d", ok, n)
			}
			if got, _ := en2.Snapshot(); !bytes.Equal(got, osnap) {
				t.Fatal("recovered state differs from the replay oracle")
			}
			if got, want := dirNames(t, dir), []string{"tree-1.snap", "tree-1.wal"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after recovery: %v, want %v", got, want)
			}
		})
	}
}

// TestGappedReplayKeepsBothWALsAside: when replay stops in
// tree-1.wal.prev (here its first wave is gone, so wave 2 meets a gap),
// recovery serves the anchor and keeps both WAL files aside as .old, so
// a later compaction cannot delete the waves it did not replay.
func TestGappedReplayKeepsBothWALsAside(t *testing.T) {
	prog, _, _ := sweepProgram(t, 8)
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	h := s.routes()
	if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 9}); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	runProgram(t, h, prog[:4])
	en, _ := s.forest.Get(1)
	if _, err := s.store.cut(1, en, s.store.get(1).log); err != nil {
		t.Fatal(err)
	}
	runProgram(t, h, prog[4:])
	s.forest.Close()
	s.store.close()
	// Rewrite tree-1.wal.prev without its first wave.
	prev := filepath.Join(dir, "tree-1.wal.prev")
	waves, err := replog.ReadWAL(prev)
	if err != nil || len(waves) < 2 {
		t.Fatalf("pre-cut wal: %d waves, err %v", len(waves), err)
	}
	if err := os.Remove(prev); err != nil {
		t.Fatal(err)
	}
	wl, err := replog.NewLog(0, prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves[1:] {
		if err := wl.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	if err := s2.store.recover(); err != nil {
		t.Fatal(err)
	}
	defer func() { s2.forest.Close(); s2.store.close() }()
	if en, ok := s2.forest.Get(1); !ok || en.AppliedSeq() != 0 {
		t.Fatal("replay past a gap: tree 1 should serve its anchor at seq 0")
	}
	wal, _ := filepath.Glob(filepath.Join(dir, "tree-1.wal.[0-9]*.old"))
	kept, _ := filepath.Glob(filepath.Join(dir, "tree-1.wal.prev.*.old"))
	if len(wal) != 1 || len(kept) != 1 || len(dirNames(t, dir)) != 4 {
		t.Fatalf("after a gapped replay: %v, want the anchor, a fresh wal and both old files kept aside", dirNames(t, dir))
	}
}

// runProgram runs sweep program ops on h; each must answer 200.
func runProgram(t *testing.T, h http.Handler, ops []sweepOp) {
	t.Helper()
	for _, op := range ops {
		if status, body := serveLocal(t, h, "POST", op.path, op.body); status != 200 {
			t.Fatalf("program op %s: status %d: %s", op.path, status, body)
		}
	}
}

// TestCompactionUnderConcurrentWrites: four clients send /batch requests
// to one tree compacted every 3 waves. Meanwhile a checker, inside engine
// barriers where no wave is appended and no cut runs, reads
// tree-1.wal.prev, tree-1.wal and then the anchor (in that order, since
// the anchor write and the tree-1.wal.prev deletion may run during the
// barrier), and finds the waves past the anchor contiguous up to the
// applied sequence. After a graceful close, recovery serves the leader's
// final sequence with byte-identical snapshot bytes.
func TestCompactionUnderConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	s.store.compactEvery = 3
	h := s.routes()
	if status, _ := serveLocal(t, h, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 3}); status != 201 {
		t.Fatalf("create: status %d", status)
	}
	// Four leaves, one per client.
	var leaves []int
	leaf := 0
	for i := 0; i < 3; i++ {
		var grown struct{ Left, Right int }
		_, body := serveLocal(t, h, "POST", "/v1/trees/1/grow", map[string]any{"leaf": leaf, "op": "add", "left": i, "right": i})
		if err := json.Unmarshal(body, &grown); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, grown.Right)
		leaf = grown.Left
	}
	leaves = append(leaves, leaf)
	en, _ := s.forest.Get(1)

	check := func() error {
		applied := en.AppliedSeq()
		var waves []dyntc.Wave
		for _, suffix := range []string{".wal.prev", ".wal"} {
			ws, err := replog.ReadWAL(s.store.file(1, suffix))
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			waves = append(waves, ws...)
		}
		_, anchor, err := dyntc.RestoreExpr(readFileOrNil(s.store.file(1, ".snap")))
		if err != nil {
			return err
		}
		next := anchor + 1
		for _, w := range waves {
			if w.Seq <= anchor {
				continue
			}
			if w.Seq != next {
				return fmt.Errorf("anchor %d: wave %d where %d belongs", anchor, w.Seq, next)
			}
			next++
		}
		if next != applied+1 {
			return fmt.Errorf("anchor %d: waves past it end at %d, applied seq %d", anchor, next-1, applied)
		}
		return nil
	}
	stop := make(chan struct{})
	checked := make(chan int)
	go func() {
		checks := 0
		defer func() { checked <- checks }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if qerr := en.Query(func(*dyntc.Expr) { err = check() }); qerr != nil {
				err = qerr
			}
			if err != nil {
				t.Errorf("check %d: %v", checks, err)
				return
			}
			checks++
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// The clients write until six compactions have run (each one's anchor
	// fsyncs, so kicks coalesce while it runs), at least 40 batches each.
	compactions := func() int { return len(s.obs.Events().Query(obs.EvWALCompact, 0, 0)) }
	var wg sync.WaitGroup
	for c, leaf := range leaves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40 || compactions() < 6 && i < 5000; i++ {
				rec := httptest.NewRecorder()
				body := fmt.Sprintf(`{"ops":[{"kind":"set-leaf","node":%d,"value":%d},{"kind":"set-leaf","node":%d,"value":%d}]}`,
					leaf, c*1000+i, leaf, c*1000+i+1)
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/trees/1/batch", strings.NewReader(body)))
				if rec.Code != 200 {
					t.Errorf("client %d batch %d: status %d: %s", c, i, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	checks := <-checked
	t.Logf("%d checks, %d compactions, seq %d", checks, compactions(), en.AppliedSeq())
	if checks == 0 {
		t.Error("the checker never ran")
	}
	if got := compactions(); got < 6 {
		t.Errorf("%d compactions under the writers, want >= 6", got)
	}
	seq := en.AppliedSeq()
	final, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.forest.Close()
	s.store.close()

	s2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	if err := s2.store.recover(); err != nil {
		t.Fatal(err)
	}
	defer func() { s2.forest.Close(); s2.store.close() }()
	en2, ok := s2.forest.Get(1)
	if !ok || en2.AppliedSeq() != seq {
		t.Fatalf("recovered tree 1 (served %v) not at the leader's seq %d", ok, seq)
	}
	if got, _ := en2.Snapshot(); !bytes.Equal(got, final) {
		t.Fatal("recovered snapshot differs from the leader's")
	}
}

// TestFollowerCrashPointSweep is the follower side of the sweep: it
// crashes a -wal-dir follower's WAL append of the applied wave N+1 for
// every N in 1..16. The crash hook panics inside the replica's wave tap,
// so the replica's engine poisons itself before that wave counts as
// applied, and the re-bootstrap the round then tries fails on the dead
// engine. A follower restarted on the same directory must recover
// exactly the N waves the crashed one logged (its snapshot byte-identical
// to the sequential replay oracle), resume the leader's log tail and end
// byte-identical to the leader.
func TestFollowerCrashPointSweep(t *testing.T) {
	const n = 24
	prog, genesis, waves := sweepProgram(t, n)
	for crashAt := 1; crashAt <= 16; crashAt++ {
		leader := newServer(dyntc.BatchOptions{})
		lh := leader.routes()
		lts := httptest.NewServer(lh)
		if status, _ := serveLocal(t, lh, "POST", "/v1/trees", map[string]any{"root": 1, "seed": 9}); status != 201 {
			t.Fatalf("create: status %d", status)
		}

		dir := t.TempDir()
		fo := newServerWAL(dyntc.BatchOptions{}, dir, 0)
		f := fo.follow(lts.URL, time.Millisecond)
		in, err := dyntc.FaultInjectorFromSpec(uint64(crashAt), fmt.Sprintf("wal.append:after=%d:crash:times=1", crashAt))
		if err != nil {
			t.Fatal(err)
		}
		fo.setFaults(in, uint64(crashAt))
		if !f.syncOnce() { // bootstrap at seq 0
			t.Fatalf("crash after %d: bootstrap round failed", crashAt)
		}
		for i, op := range prog {
			if status, body := serveLocal(t, lh, "POST", op.path, op.body); status != 200 {
				t.Fatalf("program op %d: status %d: %s", i, status, body)
			}
		}
		f.syncOnce()
		if got := in.Firings("wal.append"); got != 1 {
			t.Fatalf("crash after %d: the crash fired %d times, want 1", crashAt, got)
		}
		fo.close()

		fo2 := newServerWAL(dyntc.BatchOptions{}, dir, 0)
		if err := fo2.store.recover(); err != nil {
			t.Fatal(err)
		}
		en, ok := fo2.forest.Get(1)
		if !ok || en.AppliedSeq() != uint64(crashAt) {
			t.Fatalf("crash after %d: recovered replica (served %v) not at seq %d", crashAt, ok, crashAt)
		}
		oracle, oseq := replayWAL(t, genesis, waves, uint64(crashAt))
		osnap, err := oracle.Snapshot(oseq)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := en.Snapshot(); !bytes.Equal(got, osnap) {
			t.Fatalf("crash after %d: recovered replica differs from the replay oracle", crashAt)
		}
		if !fo2.follow(lts.URL, time.Millisecond).syncOnce() {
			t.Fatalf("crash after %d: catch-up round failed", crashAt)
		}
		_, lsnap := serveLocal(t, lh, "GET", "/v1/trees/1/snapshot", nil)
		if got, _ := en.Snapshot(); en.AppliedSeq() != n || !bytes.Equal(got, lsnap) {
			t.Fatalf("crash after %d: caught-up replica at seq %d differs from the leader at %d", crashAt, en.AppliedSeq(), n)
		}
		fo2.close()
		lts.Close()
		leader.forest.Close()
	}
}

// TestPromoteLeavesOutADeadTree: a replica whose engine no longer answers
// a barrier cannot be anchored or given its ring, so promotion leaves it
// out (no store entry, not counted) and promotes the rest, which take
// writes at the new term.
func TestPromoteLeavesOutADeadTree(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var live, dead struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1, "seed": 8}, 201, &live)
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 2, "seed": 9}, 201, &dead)
	leaf := growSome(t, fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, live.Tree), 3, 0)

	fo := newServer(dyntc.BatchOptions{})
	fo.follow(leaderSrv.URL, 2*time.Millisecond)
	foSrv := serveFollower(t, fo)
	waitHealthz(t, foSrv.URL, func(status int, h healthTrees) bool {
		return len(h.Trees) == 2 && h.Trees[0].AppliedSeq+h.Trees[1].AppliedSeq == 3
	})
	en, _ := fo.forest.Get(dead.Tree)
	en.Close()

	var promoted struct {
		Trees int    `json:"trees"`
		Epoch uint64 `json:"epoch"`
	}
	if status := postStatus(t, foSrv.URL+"/v1/promote", nil, &promoted); status != 200 {
		t.Fatalf("promote: status %d", status)
	}
	if promoted.Trees != 1 || promoted.Epoch != 2 {
		t.Fatalf("promote: %+v, want 1 tree at epoch 2", promoted)
	}
	if fo.store.get(dead.Tree) != nil {
		t.Fatal("the dead tree has a store entry after promotion")
	}
	if e := fo.store.get(live.Tree); e == nil || e.ring == nil {
		t.Fatalf("the live tree's entry after promotion: %+v", e)
	}
	call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/set-leaf", foSrv.URL, live.Tree),
		map[string]any{"leaf": leaf, "value": 77}, 200, nil)
}

// TestPromotedTreeStaysLogged: promotion keeps every tree tapped into its
// log, so a tree whose promotion anchor cannot be written — the WAL
// directory is gone — still logs each write it acknowledges in the new
// term: the wave is in its /log, at epoch 2, and the failed anchor is
// logged.
func TestPromotedTreeStaysLogged(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1, "seed": 10}, 201, &created)
	leaf := growSome(t, fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree), 3, 0)

	dir := t.TempDir()
	fo := newServerWAL(dyntc.BatchOptions{}, dir, 0)
	if !fo.follow(leaderSrv.URL, time.Millisecond).syncOnce() {
		t.Fatal("sync round failed")
	}
	foSrv := httptest.NewServer(fo.routes())
	t.Cleanup(func() {
		foSrv.Close()
		fo.close()
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	h := &slogCapture{}
	old := slog.Default()
	slog.SetDefault(slog.New(h))
	var promoted struct {
		Trees int    `json:"trees"`
		Epoch uint64 `json:"epoch"`
	}
	status := postStatus(t, foSrv.URL+"/v1/promote", nil, &promoted)
	slog.SetDefault(old)
	if status != 200 || promoted.Trees != 1 || promoted.Epoch != 2 {
		t.Fatalf("promote: status %d %+v, want 1 tree at epoch 2", status, promoted)
	}
	if len(h.messages("promotion anchor not written: a restart before the tree's next wave recovers the old epoch")) != 1 {
		t.Fatal("the failed promotion anchor was not logged")
	}
	base := fmt.Sprintf("%s/v1/trees/%d", foSrv.URL, created.Tree)
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 5}, 200, nil)
	var tail struct {
		Waves   []dyntc.Wave `json:"waves"`
		LastSeq uint64       `json:"last_seq"`
	}
	call(t, "GET", base+"/log?since=3", nil, 200, &tail)
	if tail.LastSeq != 4 || len(tail.Waves) != 1 || tail.Waves[0].EpochOrDefault() != 2 {
		t.Fatalf("acknowledged new-term write not logged: last_seq %d, %d waves", tail.LastSeq, len(tail.Waves))
	}
}

// TestBadRebootstrapKeepsReplica: a re-bootstrap body that does not
// decode leaves the served replica as it was — served, logged, and still
// catching up — instead of dropping it until the next round.
func TestBadRebootstrapKeepsReplica(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	var created struct {
		Tree dyntc.TreeID `json:"tree"`
	}
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 1, "seed": 11}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree)
	leaf := growSome(t, base, 2, 0)

	fo := newServerWAL(dyntc.BatchOptions{}, t.TempDir(), 0)
	t.Cleanup(fo.close)
	f := fo.follow(leaderSrv.URL, time.Millisecond)
	if !f.syncOnce() {
		t.Fatal("sync round failed")
	}
	if _, _, _, err := fo.store.serveReplica(created.Tree, []byte("not a snapshot")); err == nil {
		t.Fatal("a corrupt snapshot body was served")
	}
	if _, ok := fo.forest.Get(created.Tree); !ok || fo.store.get(created.Tree) == nil {
		t.Fatal("a corrupt re-bootstrap body dropped the served replica")
	}
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": leaf, "value": 3}, 200, nil)
	if !f.syncOnce() {
		t.Fatal("sync round failed")
	}
	en, _ := fo.forest.Get(created.Tree)
	if e := fo.store.get(created.Tree); en.AppliedSeq() != 3 || e.log.LastSeq() != 3 {
		t.Fatalf("replica at seq %d, log at %d, want 3", en.AppliedSeq(), e.log.LastSeq())
	}
}
