package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"dyntc"
	"dyntc/internal/engine"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// server exposes a dyntc.Forest over HTTP/JSON. Every tree is served by
// its own coalescing engine, so concurrent requests against one tree
// amortize into batches while requests against different trees proceed
// fully in parallel.
//
// API (all bodies JSON; a request body over maxBodyBytes, 1 MiB,
// answers 413 on every route that reads one, /v1/query included):
//
//	GET    /healthz
//	POST   /v1/trees                    {ring, mod?, root, seed?, tour?} -> {tree, root_node}
//	GET    /v1/trees                    -> {trees: [{tree, nodes, leaves, root}]}
//	DELETE /v1/trees/{id}
//	POST   /v1/trees/{id}/grow         {leaf, op, left, right} -> {left, right}
//	POST   /v1/trees/{id}/collapse     {node, value}
//	POST   /v1/trees/{id}/set-leaf     {leaf, value}
//	POST   /v1/trees/{id}/set-op       {node, op}
//	POST   /v1/trees/{id}/batch        {ops: [...]} -> {results: [...]}, one engine
//	                                    request: an op sees every op listed before it
//	GET    /v1/trees/{id}/value[?node=N] -> {value}
//	GET    /v1/trees/{id}/stats        -> engine + tree stats
//	GET    /v1/stats                   -> forest-wide aggregate
//	POST   /v1/query                   cross-tree scatter-gather read (see query.go)
//
// Durability & replication (see internal/replog):
//
//	GET    /v1/healthz                  -> per-engine liveness + applied seq
//	GET    /v1/trees/{id}/snapshot      -> versioned binary snapshot (tree + seed + seq),
//	                                       application/octet-stream
//	PUT    /v1/trees/{id}/snapshot      restore a tree under this id from a binary
//	                                       snapshot (a JSON one answers 400)
//	GET    /v1/trees/{id}/log?since=SEQ -> waves after SEQ (410 = truncated,
//	                                       re-bootstrap from a snapshot)
//	POST   /v1/promote                  following only: lead a new term
//	POST   /v1/demote                   {epoch}: leading only: fence writes
//
// Nodes are addressed by their dense, lifetime-stable IDs (tree.Node.ID);
// a new tree's root is node 0.
//
// A server leads or follows. Following (see follower.go), its trees are
// replicas of a leader's, fed by the poll loop; the same handlers serve
// them and every write answers 403 until POST /v1/promote flips the
// server to leading in place.
type server struct {
	forest *dyntc.Forest
	start  time.Time

	// store holds every tree's ring and wave log and, with a WAL
	// directory, its compactor and its tree-<id>.snap/.wal files (see
	// store.go): the handlers and the follower reach durable state only
	// through it.
	store *store

	// obs is the process's observability hub, shared with every engine
	// (BatchOptions.Obs), wave log (SetObs) and the query planner; it
	// backs GET /metrics, /v1/spans, /v1/events and /v1/debug/bundle. inst holds the serving layer's own instruments and
	// stats the cached forest aggregate the scrape and bundle read
	// (observe).
	obs   *dyntc.Obs
	inst  instruments
	stats *statsCache

	// fenced, when non-zero, is the newer leadership epoch this leader has
	// observed: a promoted follower is serving writes for a term above any
	// this process sealed, so every write here would be lost on the next
	// failover. A fenced leader refuses writes with 403 and keeps serving
	// reads and its log tail (the new term drains it). Fencing is one-way;
	// recovery is a restart.
	fenced atomic.Uint64

	// following is the replication state while the server follows a
	// leader, nil while it leads. Promotion stores nil: the role flip.
	following atomic.Pointer[follower]
}

// role names the server's current role in healthz and debug bundles.
func (s *server) role() string {
	if s.following.Load() != nil {
		return "follower"
	}
	return "leader"
}

// fence records a newer leadership epoch, flipping the server read-only.
// Multiple observations keep the highest epoch.
func (s *server) fence(epoch uint64) {
	for {
		cur := s.fenced.Load()
		if epoch <= cur {
			return
		}
		if s.fenced.CompareAndSwap(cur, epoch) {
			slog.Warn("fenced read-only: observed leadership epoch above ours", "epoch", epoch)
			s.obs.Events().Emit(obs.EvDemote,
				"fenced read-only: observed leadership epoch above ours",
				map[string]any{"epoch": epoch})
			return
		}
	}
}

// maxEpoch returns the highest leadership epoch across served trees.
func (s *server) maxEpoch() uint64 {
	var max uint64
	s.forest.Each(func(_ dyntc.TreeID, en *dyntc.Engine) {
		if e := en.Epoch(); e > max {
			max = e
		}
	})
	return max
}

// writable guards a mutating handler: a follower is a read replica, and
// a leader behind the epoch fence is read-only.
func (s *server) writable(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f := s.following.Load(); f != nil {
			writeErr(w, apiError{http.StatusForbidden, "read-only replica: write on the leader " + f.leader})
			return
		}
		if ep := s.fenced.Load(); ep != 0 {
			writeErr(w, apiError{http.StatusForbidden,
				fmt.Sprintf("demoted at epoch %d: fenced read-only", ep)})
			return
		}
		h(w, r)
	}
}

func newServer(opts dyntc.BatchOptions) *server {
	return newServerWAL(opts, "", 0)
}

// newServerWAL builds a server over opts. Without opts.Obs it builds an
// in-memory hub labelled "leader", so every server is observed.
func newServerWAL(opts dyntc.BatchOptions, walDir string, logCap int) *server {
	// The server sheds rather than blocks: a request against a tree whose
	// submit queue is full gets 429 + Retry-After instead of parking an
	// HTTP handler goroutine on engine backpressure.
	opts.Shed = true
	if opts.Obs == nil {
		// An in-memory hub opens no files, so it cannot fail.
		opts.Obs, _ = dyntc.NewObs(dyntc.ObsConfig{Proc: "leader"})
	}
	forest := dyntc.NewForest(opts)
	s := &server{
		forest: forest,
		start:  time.Now(),
		store:  newStore(forest, walDir, logCap, opts.Obs),
		obs:    opts.Obs,
	}
	s.store.snapshotDone = s.snapshotDone
	s.observe()
	return s
}

// close is the graceful shutdown path: stop the poll loop while
// following, drain every engine, then flush and close the wave logs.
func (s *server) close() {
	if f := s.following.Load(); f != nil {
		f.halt()
	}
	s.forest.Close()
	s.store.close()
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{"ok": true, "role": s.role(), "uptime_s": time.Since(s.start).Seconds()}
		if f := s.following.Load(); f != nil {
			body["leader"] = f.leader
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("POST /v1/trees", s.writable(s.handleCreate))
	mux.HandleFunc("GET /v1/trees", s.handleList)
	mux.HandleFunc("DELETE /v1/trees/{id}", s.writable(s.handleDelete))
	mux.HandleFunc("POST /v1/trees/{id}/grow", s.writable(s.treeHandler(s.handleGrow)))
	mux.HandleFunc("POST /v1/trees/{id}/collapse", s.writable(s.treeHandler(s.handleCollapse)))
	mux.HandleFunc("POST /v1/trees/{id}/set-leaf", s.writable(s.treeHandler(s.handleSetLeaf)))
	mux.HandleFunc("POST /v1/trees/{id}/set-op", s.writable(s.treeHandler(s.handleSetOp)))
	mux.HandleFunc("POST /v1/trees/{id}/batch", s.writable(s.treeHandler(s.handleBatch)))
	mux.HandleFunc("GET /v1/trees/{id}/value", s.treeHandler(s.handleValue))
	mux.HandleFunc("GET /v1/trees/{id}/stats", s.treeHandler(s.handleTreeStats))
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/trees/{id}/snapshot", s.treeHandler(s.handleGetSnapshot))
	mux.HandleFunc("PUT /v1/trees/{id}/snapshot", s.writable(s.handlePutSnapshot))
	mux.HandleFunc("GET /v1/trees/{id}/log", s.treeHandler(s.handleLog))
	mux.HandleFunc("POST /v1/demote", s.handleDemote)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/spans", s.handleSpans)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/debug/bundle", s.handleBundle)
	return mux
}

// tracedOp joins a handler to the distributed trace its request carries
// in X-Dyntc-Trace: an ingest span (parented on the caller's span) is
// opened for the handler's duration, the returned context submits under
// that span — which forces the executing flush into the sampled span path
// — and the response echoes "<trace>-<ingest span>" so the client can
// stitch its own spans on. A request without the header gets a zero
// context and a no-op finish; engine-side sampling then decides alone.
func (s *server) tracedOp(w http.ResponseWriter, r *http.Request, op string) (dyntc.TraceContext, func()) {
	sc := obs.ParseTraceHeader(r.Header.Get("X-Dyntc-Trace"))
	if !sc.Valid() {
		return dyntc.TraceContext{}, func() {}
	}
	ingest := dyntc.TraceContext{Trace: sc.Trace, Span: obs.NewSpanID()}
	w.Header().Set("X-Dyntc-Trace", obs.FormatTraceHeader(ingest))
	t0 := time.Now()
	return ingest, func() {
		s.obs.Spans().Add(obs.Span{
			Trace:  sc.Trace,
			Span:   ingest.Span,
			Parent: sc.Span,
			Name:   "ingest." + op,
			Start:  t0.UnixNano(),
			Dur:    int64(time.Since(t0)),
		})
	}
}

// --- plumbing ---

type apiError struct {
	status int
	msg    string
}

func (e apiError) Error() string { return e.msg }

func errStatus(err error) int {
	var ae apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	switch {
	case errors.Is(err, engine.ErrDeadNode):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrNotLeaf),
		errors.Is(err, engine.ErrNotInternal),
		errors.Is(err, engine.ErrNotCollapsible):
		return http.StatusConflict
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, engine.ErrClosed), errors.Is(err, engine.ErrPoisoned):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := errStatus(err)
	if status == http.StatusTooManyRequests {
		// Shed under load: tell well-behaved clients when to come back.
		// The executor drains a full queue in well under a second.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxOpBytes bounds the JSON of one op in a request body, whitespace
// included, and maxBodyBytes every JSON request body: room for a /batch
// of maxBatchOps ops, and for a /v1/query list of at least 49 000 tree ids
// (a larger selection names an id range instead). decode stops reading
// past it, and the request answers 413 with nothing submitted.
const (
	maxOpBytes   = 256
	maxBodyBytes = maxBatchOps * maxOpBytes
)

func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			return err
		}
		return apiError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	return nil
}

// treeHandler resolves the {id} path segment to an engine. A degraded
// follower keeps serving reads but says so: X-Dyntc-Staleness-Ms carries
// the time since its last successful leader contact.
func (s *server) treeHandler(h func(http.ResponseWriter, *http.Request, *dyntc.Engine)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad tree id"})
			return
		}
		en, ok := s.forest.Get(id)
		if !ok {
			writeErr(w, apiError{http.StatusNotFound, fmt.Sprintf("no tree %d", id)})
			return
		}
		if f := s.following.Load(); f != nil {
			if degraded, staleness, _, _ := f.health(); degraded {
				w.Header().Set("X-Dyntc-Staleness-Ms", strconv.FormatInt(staleness.Milliseconds(), 10))
			}
		}
		h(w, r, en)
	}
}

func parseRing(name string, mod int64) (dyntc.Ring, error) {
	switch name {
	case "", "mod":
		if mod == 0 {
			mod = 1_000_000_007
		}
		if mod < 2 || mod >= 1<<31 {
			return nil, apiError{http.StatusBadRequest, "mod must be in [2, 2^31)"}
		}
		return dyntc.ModRing(mod), nil
	case "minplus":
		return dyntc.MinPlus(), nil
	case "maxplus":
		return dyntc.MaxPlus(), nil
	case "bool":
		return dyntc.BoolRing(), nil
	case "maxmin":
		return dyntc.MaxMin(), nil
	}
	return nil, apiError{http.StatusBadRequest, fmt.Sprintf("unknown ring %q (want mod|minplus|maxplus|bool|maxmin)", name)}
}

func parseOp(name string, ring dyntc.Ring) (dyntc.Op, error) {
	switch name {
	case "add":
		return dyntc.OpAdd(ring), nil
	case "mul":
		return dyntc.OpMul(ring), nil
	}
	return dyntc.Op{}, apiError{http.StatusBadRequest, fmt.Sprintf("unknown op %q (want add|mul)", name)}
}

// --- tree lifecycle ---

type createReq struct {
	Ring string `json:"ring"`
	Mod  int64  `json:"mod"`
	Root int64  `json:"root"`
	Seed uint64 `json:"seed"`
	Tour bool   `json:"tour"`
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ring, err := parseRing(req.Ring, req.Mod)
	if err != nil {
		writeErr(w, err)
		return
	}
	opts := []dyntc.Option{}
	if req.Seed != 0 {
		opts = append(opts, dyntc.WithSeed(req.Seed))
	}
	if req.Tour {
		opts = append(opts, dyntc.WithTour())
	}
	id, en := s.forest.Create(ring, req.Root, opts...)
	if err := s.store.adopt(id, en, false); err != nil {
		s.forest.Drop(id)
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"tree": id, "root_node": 0})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	type treeInfo struct {
		Tree   uint64 `json:"tree"`
		Nodes  int    `json:"nodes"`
		Leaves int    `json:"leaves"`
		Root   int64  `json:"root"`
	}
	infos := []treeInfo{}
	s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
		var ti treeInfo
		ti.Tree = id
		if err := en.Query(func(e *dyntc.Expr) {
			ti.Nodes = e.Tree().Len()
			ti.Leaves = e.Tree().LeafCount()
			ti.Root = e.Root()
		}); err == nil {
			infos = append(infos, ti)
		}
	})
	sort.Slice(infos, func(i, j int) bool { return infos[i].Tree < infos[j].Tree })
	writeJSON(w, http.StatusOK, map[string]any{"trees": infos})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, "bad tree id"})
		return
	}
	if !s.store.drop(id) {
		writeErr(w, apiError{http.StatusNotFound, fmt.Sprintf("no tree %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": id})
}

// --- operations ---

func (s *server) ringOf(r *http.Request) (dyntc.Ring, error) {
	id, _ := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if e := s.store.get(id); e != nil && e.ring != nil {
		return e.ring, nil
	}
	return nil, apiError{http.StatusNotFound, "tree ring unknown"}
}

// The operation routes share one op decoder (parseOps) and one submitter
// (submitOps): a single-op route is a one-op batch with its own body
// shape, so validation, submission and future recycling are the same for
// every route.

// maxBatchOps bounds the op list of one /batch request.
const maxBatchOps = 4096

// wireOp is one operation as a /batch body lists it.
type wireOp struct {
	Kind  string `json:"kind"` // grow|collapse|set-leaf|set-op|value|root
	Node  int    `json:"node"`
	Op    string `json:"op"`
	Value int64  `json:"value"`
	Left  int64  `json:"left"`
	Right int64  `json:"right"`
}

// opResult is one op's outcome, in /batch's per-op JSON shape; err keeps
// the raw error for the single-op routes' status mapping.
type opResult struct {
	Error string `json:"error,omitempty"`
	Left  *int   `json:"left,omitempty"`
	Right *int   `json:"right,omitempty"`
	Value *int64 `json:"value,omitempty"`
	err   error
}

// decodeBatch reads a /batch body: strict JSON of at most maxBatchOps ops.
func decodeBatch(w http.ResponseWriter, r *http.Request) ([]wireOp, error) {
	var req struct {
		Ops []wireOp `json:"ops"`
	}
	if err := decode(w, r, &req); err != nil {
		return nil, err
	}
	if len(req.Ops) > maxBatchOps {
		return nil, apiError{http.StatusBadRequest, fmt.Sprintf("batch too large (max %d)", maxBatchOps)}
	}
	return req.Ops, nil
}

// parseOps maps wire ops to engine ops by kind name (the engine logs only
// the fields each kind carries). It validates every op before any is
// submitted, so an invalid op rejects the whole list rather than leaving
// it partially executed; on failure it returns the index of the first
// invalid op. Only grow and set-op consult ring.
func parseOps(ops []wireOp, ring dyntc.Ring) ([]dyntc.WaveOp, int, error) {
	out := make([]dyntc.WaveOp, len(ops))
	for i, w := range ops {
		kind, ok := replog.ParseOpKind(w.Kind)
		if !ok {
			return nil, i, apiError{http.StatusBadRequest, fmt.Sprintf("unknown kind %q", w.Kind)}
		}
		out[i] = dyntc.WaveOp{Kind: kind, Node: w.Node, Value: w.Value, Left: w.Left, Right: w.Right}
		if kind == replog.OpGrow || kind == replog.OpSetOp {
			nop, err := parseOp(w.Op, ring)
			if err != nil {
				return nil, i, err
			}
			out[i].A, out[i].B, out[i].C = nop.A, nop.B, nop.C
		}
	}
	return out, 0, nil
}

// submitOps submits ops as one engine request — one future, one place in
// the flush, ops in order — and redeems its per-op results. A non-nil
// error means the request failed as a whole (shed, closed, poisoned).
func submitOps(en *dyntc.Engine, sc dyntc.TraceContext, ops []dyntc.WaveOp) ([]opResult, error) {
	f := en.Apply(sc, ops)
	defer f.Recycle()
	res, err := f.Results()
	if err != nil {
		return nil, err
	}
	out := make([]opResult, len(res))
	for i, r := range res {
		o := &out[i]
		switch {
		case r.Err != nil:
			o.err, o.Error = r.Err, r.Err.Error()
		case ops[i].Kind == replog.OpGrow:
			lid, rid := r.Pair[0].ID, r.Pair[1].ID
			o.Left, o.Right = &lid, &rid
		case !ops[i].Kind.Mutates():
			v := r.Value
			o.Value = &v
		}
	}
	return out, nil
}

// oneOp serves a single-op route as a one-op batch: validate op (looking
// up the tree's ring only for grow and set-op), open the route's trace
// span, submit, and answer reply(result) or the error's status.
func (s *server) oneOp(w http.ResponseWriter, r *http.Request, en *dyntc.Engine, op wireOp, reply func(opResult) any) {
	var ring dyntc.Ring
	var err error
	if op.Kind == "grow" || op.Kind == "set-op" {
		ring, err = s.ringOf(r)
	}
	var ops []dyntc.WaveOp
	if err == nil {
		ops, _, err = parseOps([]wireOp{op}, ring)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	sc, finish := s.tracedOp(w, r, op.Kind)
	defer finish()
	answerOne(w, en, sc, ops, reply)
}

// answerOne submits a one-op list and answers reply(result) or the
// error's status.
func answerOne(w http.ResponseWriter, en *dyntc.Engine, sc dyntc.TraceContext, ops []dyntc.WaveOp, reply func(opResult) any) {
	res, err := submitOps(en, sc, ops)
	if err == nil {
		err = res[0].err
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reply(res[0]))
}

func (s *server) handleGrow(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	var req struct {
		Leaf  int    `json:"leaf"`
		Op    string `json:"op"`
		Left  int64  `json:"left"`
		Right int64  `json:"right"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.oneOp(w, r, en, wireOp{Kind: "grow", Node: req.Leaf, Op: req.Op, Left: req.Left, Right: req.Right},
		func(res opResult) any { return map[string]any{"left": res.Left, "right": res.Right} })
}

func (s *server) handleCollapse(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	var req struct {
		Node  int   `json:"node"`
		Value int64 `json:"value"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.oneOp(w, r, en, wireOp{Kind: "collapse", Node: req.Node, Value: req.Value},
		func(opResult) any { return map[string]any{"node": req.Node} })
}

func (s *server) handleSetLeaf(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	var req struct {
		Leaf  int   `json:"leaf"`
		Value int64 `json:"value"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.oneOp(w, r, en, wireOp{Kind: "set-leaf", Node: req.Leaf, Value: req.Value},
		func(opResult) any { return map[string]any{"leaf": req.Leaf} })
}

func (s *server) handleSetOp(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	var req struct {
		Node int    `json:"node"`
		Op   string `json:"op"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.oneOp(w, r, en, wireOp{Kind: "set-op", Node: req.Node, Op: req.Op},
		func(opResult) any { return map[string]any{"node": req.Node} })
}

func (s *server) handleValue(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	q := r.URL.Query().Get("node")
	sc, finish := s.tracedOp(w, r, "value")
	defer finish()
	if q == "" {
		answerOne(w, en, sc, []dyntc.WaveOp{{Kind: replog.OpRoot}}, func(res opResult) any { return map[string]any{"value": res.Value} })
		return
	}
	nodeID, err := strconv.Atoi(q)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, "bad node id"})
		return
	}
	answerOne(w, en, sc, []dyntc.WaveOp{{Kind: replog.OpValue, Node: nodeID}},
		func(res opResult) any { return map[string]any{"node": nodeID, "value": res.Value} })
}

// handleBatch submits a mixed operation list as one engine request and
// reports per-op results in order. The ops run in submission order: a
// wave is the longest conflict-free prefix of the flush's pending ops, so
// an op sees every op listed before it. A list with any invalid op is
// rejected whole, before anything is submitted, and so is a list the
// shedding engine refuses (429).
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	wops, err := decodeBatch(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	ring, err := s.ringOf(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	sc, finish := s.tracedOp(w, r, "batch")
	defer finish()
	ops, i, err := parseOps(wops, ring)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, fmt.Sprintf("op %d: %v", i, err)})
		return
	}
	results, err := submitOps(en, sc, ops)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

// --- stats ---

func (s *server) handleTreeStats(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	var nodes, leaves int
	var heal dyntc.HealStats
	var pm dyntc.Metrics
	err := en.Query(func(e *dyntc.Expr) {
		nodes = e.Tree().Len()
		leaves = e.Tree().LeafCount()
		heal = e.Stats()
		pm = e.PRAM()
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"engine": en.Stats(),
		"tree":   map[string]any{"nodes": nodes, "leaves": leaves},
		"last_heal": map[string]any{
			"wound_records":  heal.WoundRecords,
			"wound_rounds":   heal.WoundRounds,
			"struct_records": heal.StructRecords,
			"total_records":  heal.TotalRecords,
			"resimulated":    heal.Resimulated,
			"resim_reason":   heal.ResimReason,
			"rebuild_leaves": heal.RebuildLeaves,
		},
		"pram": map[string]any{"steps": pm.Steps, "work": pm.Work, "max_procs": pm.MaxProcs},
	})
}

// --- durability & replication ---

// maxSnapshotBody bounds snapshot transfers (PUT bodies, follower
// bootstrap downloads).
const maxSnapshotBody = 256 << 20

// readSnapshotBody reads an entire snapshot, failing loudly on oversize
// instead of silently truncating (a truncated snapshot never decodes, and
// a silent cut would turn one oversized tree into a retry loop).
func readSnapshotBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBody+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapshotBody {
		return nil, fmt.Errorf("snapshot exceeds %d bytes", maxSnapshotBody)
	}
	return data, nil
}

func (s *server) handleGetSnapshot(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	t0 := time.Now()
	data, err := en.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	s.snapshotDone(len(data), time.Since(t0))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handlePutSnapshot restores a tree from a snapshot body under the path's
// tree id — the migration / replication entry point. The id must be free.
func (s *server) handlePutSnapshot(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, "bad tree id"})
		return
	}
	body, err := readSnapshotBody(r.Body)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, "read snapshot body: " + err.Error()})
		return
	}
	en, seq, err := s.forest.Restore(id, body)
	if err != nil {
		// Restore checks occupancy under the forest lock, so a
		// lost duplicate-PUT race still maps to conflict, not bad-request.
		if errors.Is(err, engine.ErrTreeExists) {
			writeErr(w, apiError{http.StatusConflict, fmt.Sprintf("tree %d already exists", id)})
			return
		}
		writeErr(w, apiError{http.StatusBadRequest, "restore: " + err.Error()})
		return
	}
	if err := s.store.adopt(id, en, false); err != nil {
		s.forest.Drop(id)
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"tree": id, "seq": seq})
}

// handleLog ships the tree's wave change-log after ?since=SEQ. A follower
// that is too far behind the in-memory ring gets 410 Gone and must
// re-bootstrap from a snapshot.
func (s *server) handleLog(w http.ResponseWriter, r *http.Request, en *dyntc.Engine) {
	id, _ := strconv.ParseUint(r.PathValue("id"), 10, 64)
	e := s.store.get(id)
	if e == nil {
		// Between a replica's retirement and its re-birth (re-bootstrap),
		// or after a failed one.
		writeErr(w, apiError{http.StatusNotFound, fmt.Sprintf("no log for tree %d", id)})
		return
	}
	wl := e.log
	// Followers advertise the leadership epoch they trust. Seeing a higher
	// term than any wave we sealed means a promotion happened elsewhere:
	// fence writes immediately, but keep serving the tail — the new term
	// drains it.
	if h := r.Header.Get("X-Dyntc-Epoch"); h != "" {
		if ep, err := strconv.ParseUint(h, 10, 64); err == nil && ep > en.Epoch() {
			s.fence(ep)
		}
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		var err error
		if since, err = strconv.ParseUint(q, 10, 64); err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad since"})
			return
		}
	}
	waves, err := wl.Since(since)
	if err != nil {
		if errors.Is(err, replog.ErrTruncated) {
			writeJSON(w, http.StatusGone, map[string]any{
				"error":    err.Error(),
				"base_seq": wl.BaseSeq(),
			})
			return
		}
		writeErr(w, err)
		return
	}
	if waves == nil {
		waves = []dyntc.Wave{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"waves":       waves,
		"last_seq":    wl.LastSeq(),
		"applied_seq": en.AppliedSeq(),
	})
}

// handleDemote tells this leader a newer leadership term exists — the
// promotion path's explicit fencing call (a promoted follower posts it
// best-effort; operators can too). The epoch must exceed every term this
// process has sealed waves for, else 409. A follower answers 404.
func (s *server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if s.following.Load() != nil {
		http.NotFound(w, r)
		return
	}
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if max := s.maxEpoch(); req.Epoch <= max {
		writeErr(w, apiError{http.StatusConflict,
			fmt.Sprintf("demote epoch %d not above current epoch %d", req.Epoch, max)})
		return
	}
	s.fence(req.Epoch)
	writeJSON(w, http.StatusOK, map[string]any{"fenced_at_epoch": s.fenced.Load()})
}

// handleHealthz reports per-engine liveness: applied change-log sequence,
// leadership epoch, queue depth against capacity, and drop counts — the
// signals a load balancer or replication monitor needs. A fenced
// (demoted) leader reports 503 so balancers stop routing writes at it.
// While following it adds each tree's lag behind the leader's last
// observed log position and the poll loop's health; a degraded follower
// (unreachable leader) reports 503 — load balancers should prefer fresher
// replicas — while reads keep flowing.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type treeHealth struct {
		Tree       dyntc.TreeID `json:"tree"`
		AppliedSeq uint64       `json:"applied_seq"`
		LogSeq     uint64       `json:"log_seq"`
		Epoch      uint64       `json:"epoch"`
		QueueDepth int          `json:"queue_depth"`
		QueueCap   int          `json:"queue_cap"`
		Dropped    uint64       `json:"dropped"`
		WALError   string       `json:"wal_error,omitempty"`
		*replicaHealth
	}
	f := s.following.Load()
	trees := []treeHealth{}
	s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
		st := en.Stats()
		th := treeHealth{
			Tree:       id,
			AppliedSeq: en.AppliedSeq(),
			Epoch:      en.Epoch(),
			QueueDepth: st.QueueDepth,
			QueueCap:   st.QueueCap,
			Dropped:    st.Dropped,
		}
		if e := s.store.get(id); e != nil {
			th.LogSeq = e.log.LastSeq()
			if err := e.log.Err(); err != nil {
				th.WALError = err.Error()
			}
		}
		if f != nil {
			th.replicaHealth = f.treeHealth(id, th.AppliedSeq)
		}
		trees = append(trees, th)
	})
	status := http.StatusOK
	body := map[string]any{
		"ok":       true,
		"role":     "leader",
		"uptime_s": time.Since(s.start).Seconds(),
		"trees":    trees,
	}
	if f != nil {
		body["role"] = "follower"
		body["leader"] = f.leader
		if f.healthFields(body) {
			status = http.StatusServiceUnavailable
			body["ok"] = false
		}
	}
	if ep := s.fenced.Load(); ep != 0 {
		status = http.StatusServiceUnavailable
		body["ok"] = false
		body["fenced_at_epoch"] = ep
	}
	if ev, ok := s.obs.Events().LastEvent(); ok {
		body["last_event"] = ev
	}
	writeJSON(w, status, body)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.forest.Stats()
	body := map[string]any{
		"trees":      s.forest.Len(),
		"uptime_s":   time.Since(s.start).Seconds(),
		"engine":     st,
		"mean_batch": st.MeanFlush(),
		"mean_wave":  st.MeanWave(),
	}
	writeJSON(w, http.StatusOK, body)
}
