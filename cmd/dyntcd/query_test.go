package main

// Tests for the cross-tree query endpoint (leader + follower), log
// compaction with a tailing follower, and load shedding.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyntc"
	"dyntc/internal/replog"
)

// readFileOrNil returns the file's bytes, or nil when unreadable.
func readFileOrNil(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return data
}

type queryResp struct {
	Combined int64 `json:"combined"`
	Trees    int   `json:"trees"`
	Errors   int   `json:"errors"`
	Detail   []struct {
		Tree       uint64 `json:"tree"`
		Value      *int64 `json:"value"`
		AppliedSeq uint64 `json:"applied_seq"`
		Error      string `json:"error"`
	} `json:"detail"`
}

// TestQueryEndpointAggregates is the acceptance check: one POST /v1/query
// aggregates over a 64-tree forest and returns the combined result plus
// per-tree applied sequences.
func TestQueryEndpointAggregates(t *testing.T) {
	ts, s := startTestServer(t)

	const n = 64
	ids := make([]uint64, 0, n)
	for i := 1; i <= n; i++ {
		var created struct {
			Tree uint64 `json:"tree"`
		}
		call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": i, "seed": i}, 201, &created)
		ids = append(ids, created.Tree)
		if i%4 == 0 { // some trees get mutation history
			growSome(t, fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree), 3, 0)
		}
	}
	// The naive dashboard path the query replaces: one GET per tree.
	var want int64
	for _, id := range ids {
		var v struct {
			Value int64 `json:"value"`
		}
		call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", ts.URL, id), nil, 200, &v)
		want += v.Value
	}

	var res queryResp
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"read": "root", "combine": "sum", "detail": true}, 200, &res)
	if res.Trees != n || res.Errors != 0 {
		t.Fatalf("query: trees=%d errors=%d", res.Trees, res.Errors)
	}
	if res.Combined != want {
		t.Fatalf("combined = %d, want %d", res.Combined, want)
	}
	if len(res.Detail) != n {
		t.Fatalf("detail: %d entries", len(res.Detail))
	}
	var detailSum int64
	for _, d := range res.Detail {
		if d.Value == nil {
			t.Fatalf("tree %d: no value", d.Tree)
		}
		detailSum += *d.Value
		en, ok := s.forest.Get(d.Tree)
		if !ok {
			t.Fatalf("unknown tree %d in detail", d.Tree)
		}
		if d.AppliedSeq != en.AppliedSeq() { // forest is quiescent
			t.Fatalf("tree %d: applied_seq %d, engine at %d", d.Tree, d.AppliedSeq, en.AppliedSeq())
		}
	}
	if detailSum != res.Combined {
		t.Fatalf("detail sum %d != combined %d", detailSum, res.Combined)
	}

	// Count over an id range; min over explicit ids; ring combine.
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"from": 1, "to": 16, "combine": "count"}, 200, &res)
	if res.Combined != 16 {
		t.Fatalf("range count: %d", res.Combined)
	}
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"trees": []int{2, 3, 5}, "combine": "min"}, 200, &res)
	if res.Combined != 2 {
		t.Fatalf("min: %d", res.Combined)
	}
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"trees": []int{2, 3}, "combine": "mul", "ring": "mod", "mod": 7}, 200, &res)
	if res.Combined != 2*3%7 {
		t.Fatalf("ring mul: %d", res.Combined)
	}

	// Unknown tree ids are per-tree errors, not failures.
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"trees": []int{1, 100000}, "detail": true}, 200, &res)
	if res.Trees != 1 || res.Errors != 1 || res.Detail[1].Error == "" {
		t.Fatalf("missing tree: %+v", res)
	}

	// Bad specs are 400s — including "from" without "to", which must not
	// silently select every tree.
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"read": "nope"}, 400, nil)
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"combine": "nope"}, 400, nil)
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"from": 9, "to": 3}, 400, nil)
	call(t, "POST", ts.URL+"/v1/query", map[string]any{"from": 9}, 400, nil)
}

// TestCompactionKeepsFollowerTailing proves the -compact-every path end
// to end: each compaction leaves an anchor at its sequence and a WAL that
// holds only the waves after it, and since compaction leaves the ring
// alone, a follower polling through three compactions keeps tailing the
// log — no snapshot after its bootstrap — and ends byte-identical to the
// leader.
func TestCompactionKeepsFollowerTailing(t *testing.T) {
	dir := t.TempDir()
	s := newServerWAL(dyntc.BatchOptions{}, dir, 8)
	s.store.compactEvery = 5
	h := s.routes()
	var snapshots atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot") {
			snapshots.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); s.forest.Close(); s.store.close() })

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 11}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	leaf := growSome(t, base, 3, 0)

	// Follower bootstraps at seq 3 (driven manually: no background loop,
	// so the race between traffic and polls is under test control).
	fo := newServer(dyntc.BatchOptions{})
	f := fo.follow(ts.URL, time.Millisecond)
	t.Cleanup(fo.close)
	if !f.syncOnce() {
		t.Fatal("bootstrap round failed")
	}
	snapshots.Store(0)
	rep, _ := fo.forest.Get(created.Tree)

	snapPath := fmt.Sprintf("%s/tree-%d.snap", dir, created.Tree)
	walPath := fmt.Sprintf("%s/tree-%d.wal", dir, created.Tree)
	seq := 3
	for c := 1; c <= 3; c++ {
		leaf = growSome(t, base, 5*c-seq, leaf)
		// The compactor runs off the request path: wait for its anchor.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, aseq, err := dyntc.RestoreExpr(readFileOrNil(snapPath))
			_, perr := os.Stat(walPath + ".prev")
			if err == nil && aseq == uint64(5*c) && os.IsNotExist(perr) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("compaction %d: no anchor at seq %d", c, 5*c)
			}
			time.Sleep(time.Millisecond)
		}
		leaf = growSome(t, base, 2, leaf)
		seq = 5*c + 2
		ws, err := replog.ReadWAL(walPath)
		if err != nil || len(ws) != 2 || ws[0].Seq != uint64(5*c+1) {
			t.Fatalf("compaction %d: wal holds %d waves (err %v), want %d..%d", c, len(ws), err, 5*c+1, seq)
		}
		if !f.syncOnce() || rep.AppliedSeq() != uint64(seq) {
			t.Fatalf("compaction %d: follower at seq %d, want %d", c, rep.AppliedSeq(), seq)
		}
	}
	if got := snapshots.Load(); got != 0 {
		t.Fatalf("the follower fetched %d snapshots after its bootstrap, want 0", got)
	}
	lsnap := getBytes(t, base+"/snapshot", 200)
	if fsnap, err := rep.Snapshot(); err != nil || !bytes.Equal(fsnap, lsnap) {
		t.Fatalf("follower snapshot differs from the leader's (err %v)", err)
	}
}

// TestShed429 proves load shedding: with the executor pinned and the
// submit queue full, the next request gets 429 + Retry-After instead of
// blocking, and the shed is counted in /v1/stats.
func TestShed429(t *testing.T) {
	const queueCap = 2
	s := newServer(dyntc.BatchOptions{Queue: queueCap})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() { ts.Close(); s.forest.Close() })

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	en, _ := s.forest.Get(created.Tree)

	// pin holds the executor inside a barrier so nothing drains the
	// queue, until the returned unpin. A failed check must not leave it
	// pinned: the cleanups would wait on the queued requests forever.
	var wg sync.WaitGroup
	pin := func() (unpin func()) {
		release := make(chan struct{})
		unpin = sync.OnceFunc(func() { close(release) })
		t.Cleanup(unpin)
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = en.Query(func(*dyntc.Expr) { close(started); <-release })
		}()
		<-started
		return unpin
	}
	waitDepth := func(depth int) {
		deadline := time.Now().Add(5 * time.Second)
		for en.Stats().QueueDepth < depth {
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached depth %d: depth %d", depth, en.Stats().QueueDepth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A request the queue wrongly admits would wait on the pinned
	// executor: the shed checks time out instead of hanging.
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(body string) *http.Response {
		resp, err := client.Post(base+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	unpin := pin()
	requests := en.Stats().Requests

	// Fill the queue with requests that will block on their futures.
	statuses := make(chan int, queueCap)
	for i := 0; i < queueCap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/value")
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitDepth(queueCap)

	// Queue full + executor pinned: the next request is shed.
	resp, err := client.Get(base + "/value")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// A /batch that meets the full queue is one request, shed whole: 429
	// with Retry-After, and none of its ops ever reaches the executor.
	resp = post(`{"ops":[{"kind":"set-leaf","node":0,"value":5},{"kind":"root"}]}`)
	batchStatus, batchRetry := resp.StatusCode, resp.Header.Get("Retry-After")

	unpin()
	wg.Wait()
	if batchStatus != http.StatusTooManyRequests || batchRetry == "" {
		t.Fatalf("shed /batch: status %d, Retry-After %q; want 429 with Retry-After", batchStatus, batchRetry)
	}
	for i := 0; i < queueCap; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("queued request finished with %d", st)
		}
	}
	// The pinning barrier and the queued reads executed; nothing shed did.
	if st := en.Stats(); st.Requests != requests+queueCap || st.Shed != 1+2 {
		t.Fatalf("requests %d (want %d), shed %d (want 3: the /value and both /batch ops)",
			st.Requests, requests+queueCap, st.Shed)
	}

	// The queue is bounded in ops, not requests: one queued /batch of
	// queueCap ops fills it, and the next request is shed although the
	// channel has room for another.
	unpin = pin()
	full := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(`{"ops":[{"kind":"root"},{"kind":"root"}]}`))
		if err != nil {
			full <- -1
			return
		}
		resp.Body.Close()
		full <- resp.StatusCode
	}()
	waitDepth(1)
	resp, err = client.Get(base + "/value")
	unpin()
	if err != nil {
		t.Fatalf("request behind a /batch of %d ops was not shed: %v", queueCap, err)
	}
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request behind a /batch of %d ops: status %d, want 429", queueCap, resp.StatusCode)
	}
	if st := <-full; st != http.StatusOK {
		t.Fatalf("queued /batch finished with %d", st)
	}
	// A /batch larger than the queue is still admitted into an empty one.
	if st := post(`{"ops":[{"kind":"root"},{"kind":"root"},{"kind":"root"}]}`).StatusCode; st != http.StatusOK {
		t.Fatalf("/batch of %d ops into an empty queue: status %d, want 200", queueCap+1, st)
	}
	if st := en.Stats(); st.Shed != 3+1 {
		t.Fatalf("shed %d, want 4", st.Shed)
	}

	var stats struct {
		Engine struct {
			Shed uint64 `json:"shed"`
		} `json:"engine"`
	}
	call(t, "GET", ts.URL+"/v1/stats", nil, 200, &stats)
	if stats.Engine.Shed == 0 {
		t.Fatal("shed not counted in /v1/stats")
	}
}

// TestLeaderFollowerQueryEquivalence is the read-offload smoke: after
// convergence both roles answer every read the same way — POST /v1/query,
// the tree list, root and node values, and byte-identical snapshots — the
// follower serves per-tree stats, and every write route answers 403 there.
func TestLeaderFollowerQueryEquivalence(t *testing.T) {
	leaderSrv, s := startTestServer(t)

	const n = 8
	for i := 1; i <= n; i++ {
		var created struct {
			Tree uint64 `json:"tree"`
		}
		call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": i, "seed": i * 7}, 201, &created)
		growSome(t, fmt.Sprintf("%s/v1/trees/%d", leaderSrv.URL, created.Tree), i%4, 0)
	}

	fo := newServer(dyntc.BatchOptions{})
	fo.follow(leaderSrv.URL, time.Millisecond)
	foSrv := serveFollower(t, fo)

	// Wait until every replica matches its leader engine's applied seq.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caught := 0
		s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
			if rep, ok := fo.forest.Get(id); ok && rep.AppliedSeq() == en.AppliedSeq() {
				caught++
			}
		})
		if caught == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower converged on %d/%d trees", caught, n)
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, body := range []map[string]any{
		{"read": "root", "combine": "sum", "detail": true},
		{"read": "root", "combine": "max", "detail": true},
		{"from": 2, "to": 5, "combine": "count"},
	} {
		var lres, fres queryResp
		call(t, "POST", leaderSrv.URL+"/v1/query", body, 200, &lres)
		call(t, "POST", foSrv.URL+"/v1/query", body, 200, &fres)
		if lres.Combined != fres.Combined || lres.Trees != fres.Trees || lres.Errors != fres.Errors {
			t.Fatalf("query %v: leader %+v, follower %+v", body, lres, fres)
		}
		if len(lres.Detail) != len(fres.Detail) {
			t.Fatalf("query %v: detail lengths differ", body)
		}
		for i := range lres.Detail {
			ld, fd := lres.Detail[i], fres.Detail[i]
			if ld.Tree != fd.Tree || ld.AppliedSeq != fd.AppliedSeq ||
				(ld.Value == nil) != (fd.Value == nil) ||
				(ld.Value != nil && *ld.Value != *fd.Value) {
				t.Fatalf("query %v tree %d: leader %+v, follower %+v", body, ld.Tree, ld, fd)
			}
		}
	}

	// Every read answers byte for byte the same on both roles, errors
	// included (node 1 does not exist on trees that never grew).
	get := func(url string) (int, []byte) {
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
		return resp.StatusCode, data
	}
	paths := []string{"/v1/trees"}
	for id := 1; id <= n; id++ {
		tree := fmt.Sprintf("/v1/trees/%d", id)
		paths = append(paths, tree+"/value", tree+"/value?node=0", tree+"/value?node=1", tree+"/snapshot")
	}
	for _, path := range paths {
		ls, lb := get(leaderSrv.URL + path)
		fs, fb := get(foSrv.URL + path)
		if ls != fs || !bytes.Equal(lb, fb) {
			t.Fatalf("GET %s: leader %d %q, follower %d %q", path, ls, lb, fs, fb)
		}
	}
	if st, body := get(foSrv.URL + "/v1/trees/1/stats"); st != 200 {
		t.Fatalf("follower tree stats: status %d: %s", st, body)
	}

	// Every write route is refused on the follower.
	for _, w := range []struct{ method, path string }{
		{"POST", "/v1/trees"},
		{"DELETE", "/v1/trees/1"},
		{"POST", "/v1/trees/1/grow"},
		{"POST", "/v1/trees/1/collapse"},
		{"POST", "/v1/trees/1/set-leaf"},
		{"POST", "/v1/trees/1/set-op"},
		{"POST", "/v1/trees/1/batch"},
		{"PUT", "/v1/trees/1/snapshot"},
	} {
		req, err := http.NewRequest(w.method, foSrv.URL+w.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on follower: status %d, want 403", w.method, w.path, resp.StatusCode)
		}
	}
}

// TestFollowerStopsWithoutPollLoop: a follower whose poll loop never ran
// (rounds driven by hand) still closes and promotes promptly.
func TestFollowerStopsWithoutPollLoop(t *testing.T) {
	leaderSrv, _ := startTestServer(t)
	call(t, "POST", leaderSrv.URL+"/v1/trees", map[string]any{"root": 3}, 201, nil)

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung with no poll loop running", what)
		}
	}

	closing := newServer(dyntc.BatchOptions{})
	if !closing.follow(leaderSrv.URL, time.Millisecond).syncOnce() {
		t.Fatal("sync round failed")
	}
	within("close", closing.close)

	promoting := newServer(dyntc.BatchOptions{})
	if !promoting.follow(leaderSrv.URL, time.Millisecond).syncOnce() {
		t.Fatal("sync round failed")
	}
	ts := httptest.NewServer(promoting.routes())
	t.Cleanup(func() {
		ts.Close()
		promoting.close()
	})
	status := 0
	within("promote", func() {
		if resp, err := http.Post(ts.URL+"/v1/promote", "application/json", nil); err == nil {
			status = resp.StatusCode
			resp.Body.Close()
		}
	})
	if status != http.StatusOK {
		t.Fatalf("promote: status %d, want 200", status)
	}
}
