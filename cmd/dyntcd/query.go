package main

// POST /v1/query: the cross-tree scatter-gather read endpoint. One call
// names a set of trees, a per-tree read and a combiner, and gets back the
// combined value plus (with "detail") each tree's value and the
// applied-wave sequence it answered at — replacing N per-tree GET
// round-trips with one. The server scatters across its forest's
// coalescing engines (internal/query) in either role, so followers serve
// the identical surface from their replicas, the read-offload path.
//
// Request body:
//
//	{
//	  "trees": [1,2,3],          // explicit ids (optional)
//	  "from": 1, "to": 64,       // inclusive id range (optional; default all)
//	  "read": "root",            // root | value | subtree-size
//	  "node": 0,                 // target node for value / subtree-size
//	  "combine": "sum",          // sum | min | max | count | add | mul
//	  "ring": "mod", "mod": 97,  // ring for add/mul combines
//	  "detail": true             // include per-tree results
//	}
//
// Response: {"combined": .., "trees": .., "errors": ..,
//            "detail": [{"tree":1,"value":7,"applied_seq":42}, ...]}
//
// Like every JSON body, a query body is bounded by maxBodyBytes (1 MiB,
// room for at least 49 000 explicit ids); a larger one answers 413, so a
// larger selection names an id range.

import (
	"net/http"

	"dyntc/internal/query"
)

type queryReq struct {
	Trees   []uint64 `json:"trees"`
	From    uint64   `json:"from"`
	To      uint64   `json:"to"`
	Read    string   `json:"read"`
	Node    int      `json:"node"`
	Combine string   `json:"combine"`
	Ring    string   `json:"ring"`
	Mod     int64    `json:"mod"`
	Detail  bool     `json:"detail"`
}

// spec maps the wire request to a query spec.
func (q queryReq) spec() (query.Spec, error) {
	var spec query.Spec
	switch {
	case len(q.Trees) > 0:
		spec.Select = query.IDs(q.Trees...)
	case q.To != 0:
		spec.Select = query.Range(q.From, q.To)
	case q.From != 0:
		// A lower bound without an upper bound would silently select every
		// tree; reject instead of returning a confidently wrong aggregate.
		return spec, apiError{http.StatusBadRequest, "range \"from\" without \"to\""}
	default:
		spec.Select = query.All()
	}
	switch q.Read {
	case "", "root":
		spec.Read = query.Root()
	case "value":
		spec.Read = query.Value(q.Node)
	case "subtree-size":
		spec.Read = query.SubtreeSize(q.Node)
	default:
		return spec, apiError{http.StatusBadRequest, "unknown read " + q.Read + " (want root|value|subtree-size)"}
	}
	switch q.Combine {
	case "", "sum":
		spec.Combine = query.Sum()
	case "min":
		spec.Combine = query.Min()
	case "max":
		spec.Combine = query.Max()
	case "count":
		spec.Combine = query.Count()
	case "add", "mul":
		ring, err := parseRing(q.Ring, q.Mod)
		if err != nil {
			return spec, err
		}
		if q.Combine == "add" {
			spec.Combine = query.RingAdd(ring)
		} else {
			spec.Combine = query.RingMul(ring)
		}
	default:
		return spec, apiError{http.StatusBadRequest, "unknown combine " + q.Combine + " (want sum|min|max|count|add|mul)"}
	}
	return spec, nil
}

// writeQueryResult renders a completed query (detail only on request —
// a 10k-tree aggregate without it stays a few bytes).
func writeQueryResult(w http.ResponseWriter, res query.Result, detail bool) {
	type treeRes struct {
		Tree       uint64 `json:"tree"`
		Value      *int64 `json:"value,omitempty"`
		AppliedSeq uint64 `json:"applied_seq"`
		Error      string `json:"error,omitempty"`
	}
	body := map[string]any{
		"combined": res.Combined,
		"trees":    res.Trees,
		"errors":   res.Errors,
	}
	if detail {
		out := make([]treeRes, len(res.Detail))
		for i, tr := range res.Detail {
			out[i] = treeRes{Tree: tr.Tree, AppliedSeq: tr.Seq}
			if tr.Err != nil {
				out[i].Error = tr.Err.Error()
			} else {
				v := tr.Value
				out[i].Value = &v
			}
		}
		body["detail"] = out
	}
	writeJSON(w, http.StatusOK, body)
}

// handleQuery parses the wire spec, scatters it over the forest's
// engines — a follower's are its replicas, the read-offload path — and
// renders the result.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	spec, err := req.spec()
	if err != nil {
		writeErr(w, err)
		return
	}
	spec.Detail = req.Detail
	res, err := s.forest.Query(spec)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, err.Error()})
		return
	}
	writeQueryResult(w, res, req.Detail)
}
