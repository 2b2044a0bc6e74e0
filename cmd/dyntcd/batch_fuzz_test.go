package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyntc"
	"dyntc/internal/replog"
)

// FuzzBatchOps fuzzes the op decoder every operation route shares
// (decodeBatch + parseOps) with /batch request bodies. It must never
// panic. An accepted body holds at most maxBatchOps ops, each mapped to
// the replog.Op kind its name gives, with grow and set-op bound to the
// ring's add or mul. A rejected body is rejected whole before anything is
// submitted: the real route answers 400 (413 past the body bound) and the
// tree's engine sees no request.
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
		wops, err := decodeBatch(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		var ops []dyntc.WaveOp
		if err == nil {
			ops, _, err = parseOps(wops, ring)
		}
		if err == nil {
			if len(ops) > maxBatchOps || len(ops) != len(wops) {
				t.Fatalf("accepted %d ops from %d (max %d)", len(ops), len(wops), maxBatchOps)
			}
			for i, op := range ops {
				if op.Kind.String() != wops[i].Kind {
					t.Fatalf("op %d: %q mapped to kind %v", i, wops[i].Kind, op.Kind)
				}
				switch op.Kind {
				case replog.OpGrow, replog.OpSetOp:
					if nop := (dyntc.Op{A: op.A, B: op.B, C: op.C}); nop != add && nop != mul {
						t.Fatalf("op %d (%v): bound to %+v", i, op.Kind, nop)
					}
				case replog.OpCollapse, replog.OpSetLeaf, replog.OpValue, replog.OpRoot:
				default:
					t.Fatalf("op %d: accepted unknown kind %q", i, wops[i].Kind)
				}
			}
			return
		}
		before := submitted()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		want := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			want = http.StatusRequestEntityTooLarge
		}
		if rec.Code != want {
			t.Fatalf("rejected body (%v) answered %d, want %d: %s", err, rec.Code, want, rec.Body)
		}
		if after := submitted(); after != before {
			t.Fatalf("rejected body (%v) submitted %d requests", err, after-before)
		}
	})
}
