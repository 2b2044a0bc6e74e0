package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyntc"
)

// FuzzBatchOps fuzzes the op decoder every operation route shares
// (decodeBatch + parseOps) with /batch request bodies. It must never
// panic. An accepted body holds at most maxBatchOps ops, each of a known
// kind, with grow and set-op bound to the ring's add or mul. A rejected
// body is rejected whole before anything is submitted: the real route
// answers 400 and the tree's engine sees no request.
func FuzzBatchOps(f *testing.F) {
	for _, seed := range []string{
		`{"ops":[{"kind":"set-leaf","node":0,"value":7},{"kind":"root"}]}`,
		`{"ops":[{"kind":"grow","node":0,"op":"add","left":3,"right":4},{"kind":"value","node":1}]}`,
		`{"ops":[{"kind":"set-op","node":0,"op":"mul"},{"kind":"collapse","node":0,"value":1}]}`,
		`{"ops":[{"kind":"set-leaf","node":0,"value":77},{"kind":"grow","node":0,"op":"sub"}]}`,
		`{"ops":[{"kind":"teleport"}]}`,
		`{"ops":[{"kind":"root","zzz":1}]}`,
		`{"ops":null}`,
		`{"ops":[`,
	} {
		f.Add([]byte(seed))
	}

	s := newServer(dyntc.BatchOptions{})
	f.Cleanup(s.forest.Close)
	h := s.routes()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trees", strings.NewReader(`{"root":1}`)))
	var created struct {
		Tree uint64 `json:"tree"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusCreated {
		f.Fatalf("create tree: %d %s", rec.Code, rec.Body)
	}
	en, _ := s.forest.Get(created.Tree)
	ring := dyntc.ModRing(1_000_000_007)
	add, mul := dyntc.OpAdd(ring), dyntc.OpMul(ring)
	route := fmt.Sprintf("/v1/trees/%d/batch", created.Tree)
	submitted := func() uint64 {
		st := en.Stats()
		return st.Requests + st.Dropped + st.Shed
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := decodeBatch(httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if err == nil {
			_, err = parseOps(ops, ring)
		}
		if err == nil {
			if len(ops) > maxBatchOps {
				t.Fatalf("accepted %d ops (max %d)", len(ops), maxBatchOps)
			}
			for i, op := range ops {
				switch op.Kind {
				case "grow", "set-op":
					if op.op != add && op.op != mul {
						t.Fatalf("op %d (%s): bound to %+v", i, op.Kind, op.op)
					}
				case "collapse", "set-leaf", "value", "root":
				default:
					t.Fatalf("op %d: accepted unknown kind %q", i, op.Kind)
				}
			}
			return
		}
		before := submitted()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("rejected body (%v) answered %d: %s", err, rec.Code, rec.Body)
		}
		if after := submitted(); after != before {
			t.Fatalf("rejected body (%v) submitted %d requests", err, after-before)
		}
	})
}
