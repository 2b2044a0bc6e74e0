package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dyntc"
)

func startTestServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	s := newServer(dyntc.BatchOptions{})
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.forest.Close()
	})
	return ts, s
}

// call issues a JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
}

func TestServerLifecycle(t *testing.T) {
	ts, _ := startTestServer(t)

	var health struct {
		OK bool `json:"ok"`
	}
	call(t, "GET", ts.URL+"/healthz", nil, 200, &health)
	if !health.OK {
		t.Fatal("health not ok")
	}

	var created struct {
		Tree     uint64 `json:"tree"`
		RootNode int    `json:"root_node"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1, "seed": 42}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)

	var grown struct {
		Left  int `json:"left"`
		Right int `json:"right"`
	}
	call(t, "POST", base+"/grow", map[string]any{"leaf": created.RootNode, "op": "add", "left": 3, "right": 4}, 200, &grown)

	var val struct {
		Value int64 `json:"value"`
	}
	call(t, "GET", base+"/value", nil, 200, &val)
	if val.Value != 7 {
		t.Fatalf("3+4 = %d", val.Value)
	}

	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": grown.Left, "value": 10}, 200, nil)
	call(t, "GET", base+"/value", nil, 200, &val)
	if val.Value != 14 {
		t.Fatalf("10+4 = %d", val.Value)
	}

	call(t, "POST", base+"/set-op", map[string]any{"node": created.RootNode, "op": "mul"}, 200, nil)
	call(t, "GET", base+"/value", nil, 200, &val)
	if val.Value != 40 {
		t.Fatalf("10*4 = %d", val.Value)
	}

	call(t, "GET", base+"/value?node="+fmt.Sprint(grown.Right), nil, 200, &val)
	if val.Value != 4 {
		t.Fatalf("right leaf = %d", val.Value)
	}

	call(t, "POST", base+"/collapse", map[string]any{"node": created.RootNode, "value": 9}, 200, nil)
	call(t, "GET", base+"/value", nil, 200, &val)
	if val.Value != 9 {
		t.Fatalf("collapsed root = %d", val.Value)
	}

	var list struct {
		Trees []struct {
			Tree  uint64 `json:"tree"`
			Nodes int    `json:"nodes"`
			Root  int64  `json:"root"`
		} `json:"trees"`
	}
	call(t, "GET", ts.URL+"/v1/trees", nil, 200, &list)
	if len(list.Trees) != 1 || list.Trees[0].Nodes != 1 || list.Trees[0].Root != 9 {
		t.Fatalf("list: %+v", list)
	}

	call(t, "DELETE", base, nil, 200, nil)
	call(t, "GET", base+"/value", nil, 404, nil)
	call(t, "DELETE", base, nil, 404, nil)
}

func TestServerErrors(t *testing.T) {
	ts, _ := startTestServer(t)

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 5}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)

	// Unknown ring and op.
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"ring": "nope"}, 400, nil)
	call(t, "POST", base+"/grow", map[string]any{"leaf": 0, "op": "sub"}, 400, nil)
	// Dead node -> 404; wrong shape -> 409.
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": 99, "value": 1}, 404, nil)
	call(t, "POST", base+"/collapse", map[string]any{"node": 0, "value": 1}, 409, nil)
	// Unknown fields rejected.
	call(t, "POST", base+"/set-leaf", map[string]any{"leaf": 0, "value": 1, "zzz": 1}, 400, nil)
	// Missing tree.
	call(t, "GET", ts.URL+"/v1/trees/999/value", nil, 404, nil)
	call(t, "GET", ts.URL+"/v1/trees/abc/value", nil, 400, nil)

	// A batch with a malformed op is rejected whole: the valid set-leaf
	// ahead of it must not have executed.
	call(t, "POST", base+"/batch", map[string]any{"ops": []map[string]any{
		{"kind": "set-leaf", "node": 0, "value": 77},
		{"kind": "set-op", "node": 0, "op": "bogus"},
	}}, 400, nil)
	var val struct {
		Value int64 `json:"value"`
	}
	call(t, "GET", base+"/value", nil, 200, &val)
	if val.Value != 5 {
		t.Fatalf("rejected batch partially executed: root = %d, want 5", val.Value)
	}
}

func TestServerBatchAndStats(t *testing.T) {
	ts, _ := startTestServer(t)

	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)

	var grown struct {
		Left  int `json:"left"`
		Right int `json:"right"`
	}
	call(t, "POST", base+"/grow", map[string]any{"leaf": 0, "op": "add", "left": 0, "right": 0}, 200, &grown)

	// One HTTP batch: two sets on distinct leaves + a root read + an
	// invalid op whose error is reported in place.
	var batch struct {
		Results []struct {
			Error string `json:"error"`
			Value *int64 `json:"value"`
		} `json:"results"`
	}
	call(t, "POST", base+"/batch", map[string]any{"ops": []map[string]any{
		{"kind": "set-leaf", "node": grown.Left, "value": 20},
		{"kind": "set-leaf", "node": grown.Right, "value": 22},
		{"kind": "root"},
		{"kind": "collapse", "node": grown.Left, "value": 1},
	}}, 200, &batch)
	if len(batch.Results) != 4 {
		t.Fatalf("results: %+v", batch)
	}
	if batch.Results[0].Error != "" || batch.Results[1].Error != "" {
		t.Fatalf("set errors: %+v", batch.Results)
	}
	if batch.Results[2].Value == nil || *batch.Results[2].Value != 42 {
		t.Fatalf("batched root: %+v", batch.Results[2])
	}
	if batch.Results[3].Error == "" {
		t.Fatal("collapse of a leaf should fail in place")
	}

	var stats struct {
		Engine dyntc.EngineStats `json:"engine"`
		Tree   struct {
			Nodes int `json:"nodes"`
		} `json:"tree"`
	}
	call(t, "GET", base+"/stats", nil, 200, &stats)
	if stats.Tree.Nodes != 3 || stats.Engine.Requests == 0 {
		t.Fatalf("tree stats: %+v", stats)
	}

	var forest struct {
		Trees  int               `json:"trees"`
		Engine dyntc.EngineStats `json:"engine"`
	}
	call(t, "GET", ts.URL+"/v1/stats", nil, 200, &forest)
	if forest.Trees != 1 || forest.Engine.Requests == 0 {
		t.Fatalf("forest stats: %+v", forest)
	}
}

// TestBatchRunsInOrder: a /batch is one engine request whose ops run in
// listed order, each counted once in Requests. The second set-leaf of one
// leaf starts a new wave, and the root read behind it sees it.
func TestBatchRunsInOrder(t *testing.T) {
	ts, s := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	base := fmt.Sprintf("%s/v1/trees/%d", ts.URL, created.Tree)
	var grown struct {
		Left  int `json:"left"`
		Right int `json:"right"`
	}
	call(t, "POST", base+"/grow", map[string]any{"leaf": 0, "op": "add", "left": 0, "right": 4}, 200, &grown)
	en, _ := s.forest.Get(created.Tree)

	var batch struct {
		Results []struct {
			Error string `json:"error"`
			Value *int64 `json:"value"`
		} `json:"results"`
	}
	call(t, "POST", base+"/batch", map[string]any{"ops": []map[string]any{
		{"kind": "set-leaf", "node": grown.Left, "value": 1},
		{"kind": "set-leaf", "node": grown.Left, "value": 2},
		{"kind": "root"},
	}}, 200, &batch)
	if r := batch.Results; len(r) != 3 || r[2].Value == nil || *r[2].Value != 2+4 {
		t.Fatalf("set-leaf 1, set-leaf 2, root: %+v, want root %d", batch, 2+4)
	}

	before := en.Stats().Requests
	ops := make([]map[string]any, 0, 8)
	for i := 0; i < 4; i++ {
		ops = append(ops, map[string]any{"kind": "set-leaf", "node": grown.Right, "value": i},
			map[string]any{"kind": "value", "node": grown.Right})
	}
	call(t, "POST", base+"/batch", map[string]any{"ops": ops}, 200, &batch)
	for i, r := range batch.Results {
		if r.Error != "" || i%2 == 1 && (r.Value == nil || *r.Value != int64(i/2)) {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	if got := en.Stats().Requests - before; got != 8 {
		t.Fatalf("a /batch of 8 ops moved Requests by %d, want 8", got)
	}
}

// TestBodyLimit413: decode stops reading a JSON body one byte past
// maxBodyBytes, and the request answers 413 with nothing submitted; a body
// of exactly maxBodyBytes is read whole.
func TestBodyLimit413(t *testing.T) {
	ts, s := startTestServer(t)
	var created struct {
		Tree uint64 `json:"tree"`
	}
	call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 1}, 201, &created)
	en, _ := s.forest.Get(created.Tree)
	submitted := func() uint64 {
		st := en.Stats()
		return st.Requests + st.Dropped + st.Shed
	}
	// A valid body whose whitespace sits inside the op list, so the
	// decoder must read all of it.
	body := func(size int) string {
		head, tail := `{"ops":[{"kind":"root"}`, `]}`
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	post := func(b string) int {
		resp, err := http.Post(fmt.Sprintf("%s/v1/trees/%d/batch", ts.URL, created.Tree), "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	before := submitted()
	if code := post(body(maxBodyBytes + 1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of maxBodyBytes+1: status %d, want 413", code)
	}
	if after := submitted(); after != before {
		t.Fatalf("an oversized body submitted %d ops", after-before)
	}
	if code := post(body(maxBodyBytes)); code != http.StatusOK {
		t.Fatalf("body of maxBodyBytes: status %d, want 200", code)
	}

	// The bound holds for every JSON body: a /v1/query listing more tree
	// ids than fit answers 413 too.
	ids := strings.Repeat(fmt.Sprintf("%d,", created.Tree), maxBodyBytes/2)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"trees":[`+ids+fmt.Sprint(created.Tree)+`],"read":"root","combine":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/v1/query body over maxBodyBytes: status %d, want 413", resp.StatusCode)
	}
	if after := submitted(); after != before+1 {
		t.Fatalf("an oversized query submitted %d ops", after-before-1)
	}
}

// TestServerConcurrentClients drives many goroutines against two trees
// through the full HTTP stack and checks the final values.
func TestServerConcurrentClients(t *testing.T) {
	ts, _ := startTestServer(t)

	mkTree := func() (uint64, int, int) {
		var created struct {
			Tree uint64 `json:"tree"`
		}
		call(t, "POST", ts.URL+"/v1/trees", map[string]any{"root": 0}, 201, &created)
		var grown struct {
			Left  int `json:"left"`
			Right int `json:"right"`
		}
		call(t, "POST", fmt.Sprintf("%s/v1/trees/%d/grow", ts.URL, created.Tree),
			map[string]any{"leaf": 0, "op": "add", "left": 0, "right": 0}, 200, &grown)
		return created.Tree, grown.Left, grown.Right
	}
	t1, l1, r1 := mkTree()
	t2, l2, r2 := mkTree()

	const perLeaf = 30
	var wg sync.WaitGroup
	for _, cfg := range []struct {
		tree uint64
		leaf int
	}{{t1, l1}, {t1, r1}, {t2, l2}, {t2, r2}} {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(tree uint64, leaf int) {
				defer wg.Done()
				url := fmt.Sprintf("%s/v1/trees/%d/set-leaf", ts.URL, tree)
				for i := 0; i < perLeaf; i++ {
					body, _ := json.Marshal(map[string]any{"leaf": leaf, "value": 7})
					resp, err := http.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("post: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("set-leaf status %d", resp.StatusCode)
						return
					}
				}
			}(cfg.tree, cfg.leaf)
		}
	}
	wg.Wait()

	for _, id := range []uint64{t1, t2} {
		var val struct {
			Value int64 `json:"value"`
		}
		call(t, "GET", fmt.Sprintf("%s/v1/trees/%d/value", ts.URL, id), nil, 200, &val)
		if val.Value != 14 {
			t.Fatalf("tree %d root = %d, want 14", id, val.Value)
		}
	}
}
