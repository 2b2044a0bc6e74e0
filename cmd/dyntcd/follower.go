package main

// Follower mode (-follow <leader-url>): this process serves read-only
// replicas of every tree a leader dyntcd serves. Each replica bootstraps
// from GET /v1/trees/{id}/snapshot and then tails GET
// /v1/trees/{id}/log?since=SEQ, applying shipped waves in order through
// the verified replay of internal/replog (recorded grow IDs and post-wave
// roots are checked on every wave). A replica that falls behind the
// leader's log ring (410 Gone) re-bootstraps from a fresh snapshot.
//
// Failover: POST /v1/promote ends replica life — every caught-up replica
// is promoted to a new leadership term (epoch+1) and the process swaps
// in a full leader mux over the same listener. An unreachable leader
// does not take the follower down: the poll loop backs off
// exponentially (with seeded jitter) and the replicas keep serving reads
// in explicit degraded mode, reporting their staleness bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/prng"
	"dyntc/internal/query"
)

// degradedErrThreshold is how many consecutive failed leader polls flip
// the follower into degraded mode (healthz 503, staleness headers on
// reads) even before any -degraded-after bound elapses.
const degradedErrThreshold = 3

// backoffCap bounds the exponential poll backoff against a dead leader.
const backoffCap = 5 * time.Second

// followerServer polls one leader and serves its trees read-only.
type followerServer struct {
	leader string // leader base URL, no trailing slash
	poll   time.Duration
	client *http.Client
	start  time.Time

	// pool is the process-wide runtime scheduler: replica replay (the
	// verified wave re-execution) runs on it, per-tree catch-up tasks are
	// scattered across it, and the query planner shares it.
	pool *dyntc.SchedPool

	// queryEndpoint serves POST /v1/query against the local replicas (the
	// read-offload path); planner scatters on the shared pool.
	queryEndpoint bool
	planner       *query.Planner

	// opts/walDir/logCap configure the leader this process becomes on
	// promotion; until then only the replicas run.
	opts   dyntc.BatchOptions
	walDir string
	logCap int

	// degradedAfter is the staleness bound: longer than this without a
	// successful leader contact means degraded mode (0 = only the
	// consecutive-error threshold applies).
	degradedAfter time.Duration

	// faults, when set (setFaults), is checked at site "follower.rpc" on
	// every leader HTTP call (see faultTransport) and rides into the
	// leader this process becomes on promotion.
	faults *dyntc.FaultInjector

	mu   sync.Mutex
	reps map[dyntc.TreeID]*replica

	// errMu guards the poll-loop health state: consecutive failed rounds,
	// the current backoff, and the last successful leader contact.
	errMu       sync.Mutex
	consecErrs  int
	backoff     time.Duration
	lastContact time.Time
	jitter      *prng.Source

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// promoteMu serializes POST /v1/promote; leaderH holds the promoted
	// leader's handler (handler() routes everything there once set) and
	// leaderSrv the server behind it, for shutdown.
	promoteMu sync.Mutex
	leaderH   atomic.Value // http.Handler
	leaderSrv *server

	// obs, when set (followerServer.observe), adds GET /metrics and
	// GET /v1/trace to the routes and feeds the bootstrap instruments.
	obs *obsBundle
}

// replica is one followed tree.
type replica struct {
	mu        sync.Mutex
	fo        *dyntc.Follower
	leaderSeq uint64 // last_seq reported by the leader's log endpoint
	lastErr   string
	applied   uint64 // waves applied by this process (catch-up throughput)
}

// faultTransport checks the injector at site "follower.rpc" before every
// leader call: an error rule simulates a partition (latency rules stall
// inside Check).
type faultTransport struct {
	base http.RoundTripper
	in   *dyntc.FaultInjector
}

func (t *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rule := t.in.Check("follower.rpc"); rule != nil && rule.Err != nil {
		return nil, rule.Err
	}
	return t.base.RoundTrip(r)
}

func newFollower(leader string, poll time.Duration) *followerServer {
	return newFollowerOn(leader, poll, nil)
}

func newFollowerOn(leader string, poll time.Duration, pool *dyntc.SchedPool) *followerServer {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	return &followerServer{
		leader:        leader,
		poll:          poll,
		client:        &http.Client{Timeout: 30 * time.Second},
		start:         time.Now(),
		pool:          pool,
		queryEndpoint: true,
		planner:       query.NewPlannerOn(pool, 0),
		reps:          make(map[dyntc.TreeID]*replica),
		lastContact:   time.Now(),
		jitter:        prng.New(uint64(time.Now().UnixNano())),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
}

// setFaults installs the deterministic fault schedule on the leader
// transport (site "follower.rpc") and re-seeds the backoff jitter from
// the same seed, so a chaos run's timing is reproducible.
func (f *followerServer) setFaults(in *dyntc.FaultInjector, seed uint64) {
	f.faults = in
	f.jitter = prng.New(seed ^ 0xD6E8FEB86659FD93)
	if in != nil {
		base := f.client.Transport
		if base == nil {
			base = http.DefaultTransport
		}
		f.client.Transport = &faultTransport{base: base, in: in}
	}
}

// run is the catch-up loop: discover trees, bootstrap new ones, tail
// logs. Failed rounds back off exponentially (capped, jittered) instead
// of hammering a dead or partitioned leader at the poll interval.
func (f *followerServer) run() {
	defer close(f.done)
	for {
		delay := f.noteRound(f.syncOnce())
		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
	}
}

// noteRound records one poll round's outcome and returns the next delay:
// the poll interval after a success, capped exponential backoff with
// seeded jitter after consecutive failures. Degraded-mode edges — the
// round that crossed the threshold, the round that restored contact —
// are journaled as they happen.
func (f *followerServer) noteRound(ok bool) time.Duration {
	f.errMu.Lock()
	wasDegraded := f.degradedLocked()
	outage := time.Since(f.lastContact)
	var delay time.Duration
	if ok {
		f.consecErrs = 0
		f.backoff = 0
		f.lastContact = time.Now()
		delay = f.poll
	} else {
		f.consecErrs++
		b := f.poll
		for i := 1; i < f.consecErrs && b < backoffCap; i++ {
			b *= 2
		}
		if b > backoffCap {
			b = backoffCap
		}
		// Up to +25% jitter so a fleet of followers does not stampede the
		// leader the moment it returns.
		b += time.Duration(f.jitter.Int63() % int64(b/4+1))
		f.backoff = b
		delay = b
	}
	nowDegraded := f.degradedLocked()
	consec := f.consecErrs
	f.errMu.Unlock()
	if nowDegraded && !wasDegraded {
		f.obs.journal().Emit(obs.EvDegradedEnter,
			"leader unreachable: serving reads in degraded mode",
			map[string]any{"consecutive_errors": consec, "staleness_ms": outage.Milliseconds()})
	} else if wasDegraded && !nowDegraded {
		f.obs.journal().Emit(obs.EvDegradedExit,
			"leader contact restored",
			map[string]any{"outage_ms": outage.Milliseconds()})
	}
	return delay
}

// degradedLocked is the degraded predicate; callers hold errMu.
func (f *followerServer) degradedLocked() bool {
	return f.consecErrs >= degradedErrThreshold ||
		(f.degradedAfter > 0 && time.Since(f.lastContact) > f.degradedAfter)
}

// health returns the poll-loop state and whether the follower is
// degraded: too many consecutive failed rounds, or longer than the
// configured staleness bound since the last successful leader contact.
func (f *followerServer) health() (degraded bool, staleness time.Duration, consecErrs int, backoff time.Duration) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.degradedLocked(), time.Since(f.lastContact), f.consecErrs, f.backoff
}

// Close stops the catch-up loop and waits for it to exit. After a
// promotion it also shuts down the leader this process became.
func (f *followerServer) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	f.planner.Close()
	f.promoteMu.Lock()
	s := f.leaderSrv
	f.promoteMu.Unlock()
	if s != nil {
		s.forest.Close()
		s.closeLogs()
	}
}

func (f *followerServer) getJSON(path string, v any) error {
	resp, err := f.client.Get(f.leader + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// syncOnce runs one discovery + catch-up round; false means the leader
// was unreachable (the round counts against the backoff/degraded state).
func (f *followerServer) syncOnce() bool {
	var list struct {
		Trees []struct {
			Tree dyntc.TreeID `json:"tree"`
		} `json:"trees"`
	}
	if err := f.getJSON("/v1/trees", &list); err != nil {
		slog.Warn("follower: list trees failed", "err", err)
		return false
	}
	// Per-tree catch-up rides the shared scheduler: each tree's log tail
	// fetch + verified replay is one blocking task, so many replicas catch
	// up in parallel without spawning a goroutine per tree; whatever the
	// pool cannot absorb runs inline on the poll loop, as before.
	live := make(map[dyntc.TreeID]bool, len(list.Trees))
	var wg sync.WaitGroup
	for _, ti := range list.Trees {
		id := ti.Tree
		live[id] = true
		task := func() {
			defer wg.Done()
			f.syncTree(id)
		}
		wg.Add(1)
		if f.pool == nil || !f.pool.TrySubmitBlocking(task) {
			task()
		}
	}
	wg.Wait()
	// Drop replicas of trees the leader no longer serves.
	f.mu.Lock()
	for id := range f.reps {
		if !live[id] {
			delete(f.reps, id)
		}
	}
	f.mu.Unlock()
	return true
}

func (f *followerServer) getReplica(id dyntc.TreeID) *replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reps[id]
}

// bootstrap fetches a fresh snapshot and (re)builds the replica.
func (f *followerServer) bootstrap(id dyntc.TreeID) (*replica, error) {
	t0 := time.Now()
	resp, err := f.client.Get(fmt.Sprintf("%s/v1/trees/%d/snapshot", f.leader, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot: %s", resp.Status)
	}
	data, err := readSnapshotBody(resp.Body)
	if err != nil {
		return nil, err
	}
	var fopts []dyntc.Option
	if f.pool != nil {
		fopts = append(fopts, dyntc.WithPool(f.pool))
	}
	fo, err := dyntc.NewFollower(data, fopts...)
	if err != nil {
		return nil, err
	}
	f.obs.snapshotDone(len(data), time.Since(t0))
	rep := &replica{fo: fo, leaderSeq: fo.Seq()}
	f.mu.Lock()
	_, rebootstrap := f.reps[id]
	f.reps[id] = rep
	f.mu.Unlock()
	if rebootstrap && f.obs != nil {
		f.obs.rebootstraps.Inc()
		f.obs.journal().EmitTree(obs.EvRebootstrap, uint64(id),
			"replica rebuilt from a fresh snapshot",
			map[string]any{"seq": fo.Seq(), "bytes": len(data)})
	}
	slog.Info("follower: tree bootstrapped", "tree", id, "seq", fo.Seq())
	return rep, nil
}

// syncTree bootstraps tree id if new, then applies the leader's log tail.
func (f *followerServer) syncTree(id dyntc.TreeID) {
	rep := f.getReplica(id)
	if rep == nil {
		var err error
		if rep, err = f.bootstrap(id); err != nil {
			slog.Warn("follower: bootstrap failed", "tree", id, "err", err)
			return
		}
	}

	var tail struct {
		Waves   []dyntc.Wave `json:"waves"`
		LastSeq uint64       `json:"last_seq"`
	}
	path := fmt.Sprintf("/v1/trees/%d/log?since=%d", id, rep.fo.Seq())
	req, err := http.NewRequest(http.MethodGet, f.leader+path, nil)
	if err != nil {
		rep.setErr(err)
		return
	}
	// Advertise the leadership term this replica trusts: a stale leader
	// that sees a higher term fences itself read-only (it still serves
	// the tail so the new term can drain it).
	req.Header.Set("X-Dyntc-Epoch", strconv.FormatUint(rep.fo.Epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		rep.setErr(err)
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		err = json.NewDecoder(resp.Body).Decode(&tail)
	case http.StatusGone:
		// Fell behind the leader's ring: re-bootstrap from a snapshot.
		slog.Warn("follower: log truncated, re-bootstrapping", "tree", id)
		if _, err := f.bootstrap(id); err != nil {
			slog.Error("follower: re-bootstrap failed", "tree", id, "err", err)
			rep.setErr(err)
		}
		return
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err = fmt.Errorf("%s: %s: %s", path, resp.Status, body)
	}
	if err != nil {
		rep.setErr(err)
		return
	}
	rep.mu.Lock()
	rep.leaderSeq = tail.LastSeq
	rep.mu.Unlock()
	// Apply wave by wave (not ApplyAll) so every replicated wave's lag is
	// attributed to its stages — appended→fetched against the leader's WAL
	// timestamp, fetched→applied against the verified replay — and its
	// follower-side spans land in the span log as each wave completes.
	fetched := time.Now()
	for _, wv := range tail.Waves {
		if err := rep.fo.Apply(wv); err != nil {
			// Divergence is unrecoverable by replay: rebuild from a snapshot.
			slog.Error("follower: apply failed, re-bootstrapping", "tree", id, "seq", wv.Seq, "err", err)
			rep.setErr(err)
			if _, berr := f.bootstrap(id); berr != nil {
				slog.Error("follower: re-bootstrap failed", "tree", id, "err", berr)
			}
			return
		}
		rep.mu.Lock()
		rep.applied++
		rep.mu.Unlock()
		f.observeApply(wv, fetched)
	}
	rep.mu.Lock()
	rep.lastErr = ""
	rep.mu.Unlock()
}

// observeApply attributes one replicated wave's lag and stitches the
// follower's side of its distributed trace. The appended→fetched stage
// runs from the leader's WAL-append timestamp to this follower holding
// the decoded tail; fetched→applied runs from there to the wave's
// verified replay completing. Timed waves feed the histograms always;
// span records are added only for waves sealed inside a sampled trace
// (TraceID set), parented on the deterministic (epoch, seq) wave span ID
// both processes derive independently.
func (f *followerServer) observeApply(wv dyntc.Wave, fetched time.Time) {
	b := f.obs
	if b == nil || wv.AppendedAt == 0 {
		return
	}
	fetchedNS := fetched.UnixNano()
	fetchLag := fetchedNS - wv.AppendedAt
	if fetchLag < 0 {
		// Cross-process clock skew: clamp rather than poison the histogram.
		fetchLag = 0
	}
	applyLag := time.Now().UnixNano() - fetchedNS
	b.replog.AppendedFetched.Observe(fetchLag)
	b.replog.FetchedApplied.Observe(applyLag)
	// Replication-lag stages feed the flight recorder: a leader whose WAL
	// or network stalls shows up as a replica.fetch anomaly, a replica
	// whose verified replay slows down as replica.apply.
	b.anomaly.Observe(sigReplicaFetch, fetchLag)
	b.anomaly.Observe(sigReplicaApply, applyLag)
	if wv.TraceID == 0 || b.spans == nil {
		return
	}
	epoch := wv.EpochOrDefault()
	anchor := dyntc.WaveSpanID(epoch, wv.Seq)
	b.spans.Add(dyntc.SpanRecord{
		Trace: dyntc.SpanID(wv.TraceID), Span: dyntc.NewSpanID(), Parent: anchor,
		Name: "replica.fetch", Seq: wv.Seq, Epoch: epoch,
		Start: wv.AppendedAt, Dur: fetchLag,
	})
	b.spans.Add(dyntc.SpanRecord{
		Trace: dyntc.SpanID(wv.TraceID), Span: dyntc.NewSpanID(), Parent: anchor,
		Name: "replica.apply", Seq: wv.Seq, Epoch: epoch,
		Start: fetchedNS, Dur: applyLag,
	})
}

func (r *replica) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// handler is the process's serving handler: the follower mux until a
// promotion swaps in the new leader's mux atomically under the same
// listener.
func (f *followerServer) handler() http.Handler {
	mux := f.routes()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := f.leaderH.Load(); h != nil {
			h.(http.Handler).ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// routes serves the read-only replica API. Mutations are rejected with
// 403: a follower is a read replica, writes belong on the leader.
func (f *followerServer) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "role": "follower", "leader": f.leader,
			"uptime_s": time.Since(f.start).Seconds(),
		})
	})
	mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	mux.HandleFunc("GET /v1/trees", f.handleList)
	mux.HandleFunc("GET /v1/trees/{id}/value", f.replicaHandler(f.handleValue))
	mux.HandleFunc("GET /v1/trees/{id}/snapshot", f.replicaHandler(f.handleSnapshot))
	mux.HandleFunc("POST /v1/promote", f.handlePromote)
	if f.queryEndpoint {
		mux.HandleFunc("POST /v1/query", f.handleQuery)
	}
	if f.obs != nil {
		mux.HandleFunc("GET /metrics", f.obs.handleMetrics)
		mux.HandleFunc("GET /v1/trace", f.obs.handleTrace)
		mux.HandleFunc("GET /v1/spans", f.obs.handleSpans)
		mux.HandleFunc("GET /v1/events", f.obs.handleEvents)
		mux.HandleFunc("GET /v1/hot", f.obs.handleHot)
		mux.HandleFunc("GET /v1/debug/bundle", f.obs.handleBundle)
	}
	reject := func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, apiError{http.StatusForbidden, "read-only replica: write on the leader " + f.leader})
	}
	for _, p := range []string{
		"POST /v1/trees", "DELETE /v1/trees/{id}", "POST /v1/trees/{id}/grow",
		"POST /v1/trees/{id}/collapse", "POST /v1/trees/{id}/set-leaf",
		"POST /v1/trees/{id}/set-op", "POST /v1/trees/{id}/batch",
		"PUT /v1/trees/{id}/snapshot",
	} {
		mux.HandleFunc(p, reject)
	}
	return mux
}

// handlePromote turns this follower into the leader of a new term: every
// replica is promoted (epoch+1) and restored into a serving engine with
// its own wave log, the leader mux takes over the listener, and the old
// leader is told to fence itself (best-effort — epoch fencing protects
// correctness even if the demote call never lands).
//
// Promotion is all-or-nothing. Phase 1 prepares: every replica's state
// is re-stamped at the next term and restored into a fresh leader
// server, while the poll loop keeps tailing and the replicas keep
// applying — nothing is committed, so any per-tree failure aborts with
// every replica still live and a retried POST /v1/promote can succeed.
// Only after every tree is restored does phase 2 commit: stop the poll
// loop, mark the replicas promoted, and swap the leader mux in.
//
// The caller is responsible for promoting a caught-up follower: waves
// the old leader acknowledged past each replica's prepared sequence are
// lost, exactly as in any asynchronous-replication failover.
func (f *followerServer) handlePromote(w http.ResponseWriter, r *http.Request) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.leaderSrv != nil {
		writeErr(w, apiError{http.StatusConflict, "already promoted"})
		return
	}
	t0 := time.Now()

	s := newServerWAL(f.opts, f.walDir, f.logCap)
	s.faults = f.faults
	// Hand the bundle over before any attachLog so the promoted term's
	// wave logs are instrumented from their first append (observe —
	// re-registering the gauges — waits for the phase-2 commit).
	s.obs = f.obs
	f.mu.Lock()
	reps := make(map[dyntc.TreeID]*replica, len(f.reps))
	for id, rep := range f.reps {
		reps[id] = rep
	}
	f.mu.Unlock()
	abort := func(err error) {
		s.forest.Close()
		s.closeLogs()
		writeErr(w, err)
	}
	var epoch uint64
	for id, rep := range reps {
		snap, seq, ep, err := rep.fo.PreparePromote()
		if err != nil {
			abort(fmt.Errorf("promote tree %d: %w", id, err))
			return
		}
		en, _, err := s.forest.Restore(id, snap)
		if err != nil {
			abort(fmt.Errorf("restore promoted tree %d: %w", id, err))
			return
		}
		var ring dyntc.Ring
		if err := en.Query(func(e *dyntc.Expr) { ring = e.Tree().Ring }); err != nil {
			abort(err)
			return
		}
		s.rings.Store(id, ring)
		if err := s.persistSnapshot(id, snap); err != nil {
			// Keep failing over: the tree serves from memory and the next
			// compaction re-anchors it.
			slog.Error("persist promoted snapshot failed", "tree", id, "err", err)
		}
		if err := s.attachLog(id, en); err != nil {
			abort(fmt.Errorf("attach log to promoted tree %d: %w", id, err))
			return
		}
		if ep > epoch {
			epoch = ep
		}
		slog.Info("tree promoted", "tree", id, "seq", seq, "epoch", ep)
	}

	// Phase 2 — commit: every tree restored, so the promotion can no
	// longer fail. Stop tailing the old leader, then mark the replicas
	// promoted (late waves now get ErrPromoted instead of applying to
	// state the new term no longer reads).
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	for _, rep := range reps {
		rep.fo.MarkPromoted()
	}
	if f.obs != nil {
		// Re-registration replaces the follower's cross-layer gauge
		// closures with the leader's; the promotion counter marks the
		// term change on the shared registry.
		s.observe(f.obs)
		f.obs.promotions.Inc()
	}
	f.leaderSrv = s
	f.leaderH.Store(http.Handler(s.routes()))
	failoverMS := time.Since(t0).Milliseconds()
	f.obs.journal().Emit(obs.EvPromote, "promoted to leader",
		map[string]any{"trees": len(reps), "epoch": epoch, "failover_ms": failoverMS})

	// Tell the old leader it is demoted. Best-effort and asynchronous: if
	// it is dead or partitioned the epoch fence still rejects its late
	// writes wave by wave.
	go func(leader string, epoch uint64) {
		body, _ := json.Marshal(map[string]uint64{"epoch": epoch})
		resp, err := http.Post(leader+"/v1/demote", "application/json", bytes.NewReader(body))
		if err != nil {
			slog.Warn("demote old leader failed", "leader", leader, "err", err)
			return
		}
		resp.Body.Close()
	}(f.leader, epoch)

	slog.Info("promoted to leader", "trees", len(reps), "epoch", epoch, "failover_ms", failoverMS)
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted":    true,
		"trees":       len(reps),
		"epoch":       epoch,
		"failover_ms": failoverMS,
	})
}

func (f *followerServer) replicaHandler(h func(http.ResponseWriter, *http.Request, *replica)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeErr(w, apiError{http.StatusBadRequest, "bad tree id"})
			return
		}
		rep := f.getReplica(id)
		if rep == nil {
			writeErr(w, apiError{http.StatusNotFound, fmt.Sprintf("no replica of tree %d", id)})
			return
		}
		// Degraded reads stay served, but say so: the header carries the
		// staleness bound (time since the last successful leader contact).
		if degraded, staleness, _, _ := f.health(); degraded {
			w.Header().Set("X-Dyntc-Staleness-Ms", strconv.FormatInt(staleness.Milliseconds(), 10))
		}
		h(w, r, rep)
	}
}

// handleHealthz reports per-replica applied sequence and lag behind the
// leader's last observed log position, plus the poll loop's health:
// consecutive failed rounds, current backoff, and staleness. A degraded
// follower (unreachable leader) reports 503 — load balancers should
// prefer fresher replicas — while reads keep flowing.
func (f *followerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type repHealth struct {
		Tree       dyntc.TreeID `json:"tree"`
		AppliedSeq uint64       `json:"applied_seq"`
		LeaderSeq  uint64       `json:"leader_seq"`
		Lag        uint64       `json:"lag"`
		Epoch      uint64       `json:"epoch"`
		Waves      uint64       `json:"waves_applied"`
		LastError  string       `json:"last_error,omitempty"`
	}
	trees := []repHealth{}
	f.mu.Lock()
	reps := make(map[dyntc.TreeID]*replica, len(f.reps))
	for id, rep := range f.reps {
		reps[id] = rep
	}
	f.mu.Unlock()
	for id, rep := range reps {
		rep.mu.Lock()
		rh := repHealth{
			Tree:       id,
			AppliedSeq: rep.fo.Seq(),
			LeaderSeq:  rep.leaderSeq,
			Epoch:      rep.fo.Epoch(),
			Waves:      rep.applied,
			LastError:  rep.lastErr,
		}
		rep.mu.Unlock()
		if rh.LeaderSeq > rh.AppliedSeq {
			rh.Lag = rh.LeaderSeq - rh.AppliedSeq
		}
		trees = append(trees, rh)
	}
	degraded, staleness, consecErrs, backoff := f.health()
	status := http.StatusOK
	body := map[string]any{
		"ok": !degraded, "role": "follower", "leader": f.leader,
		"uptime_s":           time.Since(f.start).Seconds(),
		"trees":              trees,
		"degraded":           degraded,
		"consecutive_errors": consecErrs,
		"backoff_ms":         backoff.Milliseconds(),
		"staleness_ms":       staleness.Milliseconds(),
	}
	if degraded {
		status = http.StatusServiceUnavailable
	}
	if f.pool != nil {
		body["sched"] = f.pool.Stats()
	}
	if f.obs != nil {
		body["anomaly_active"] = f.obs.anomaly.Active()
		if ev, ok := f.obs.events.LastEvent(); ok {
			body["last_event"] = ev
		}
	}
	writeJSON(w, status, body)
}

func (f *followerServer) handleList(w http.ResponseWriter, r *http.Request) {
	type treeInfo struct {
		Tree   dyntc.TreeID `json:"tree"`
		Nodes  int          `json:"nodes"`
		Leaves int          `json:"leaves"`
		Root   int64        `json:"root"`
	}
	infos := []treeInfo{}
	f.mu.Lock()
	reps := make(map[dyntc.TreeID]*replica, len(f.reps))
	for id, rep := range f.reps {
		reps[id] = rep
	}
	f.mu.Unlock()
	for id, rep := range reps {
		ti := treeInfo{Tree: id}
		rep.fo.Query(func(e *dyntc.Expr) {
			ti.Nodes = e.Tree().Len()
			ti.Leaves = e.Tree().LeafCount()
			ti.Root = e.Root()
		})
		infos = append(infos, ti)
	}
	writeJSON(w, http.StatusOK, map[string]any{"trees": infos})
}

func (f *followerServer) handleValue(w http.ResponseWriter, r *http.Request, rep *replica) {
	q := r.URL.Query().Get("node")
	if q == "" {
		writeJSON(w, http.StatusOK, map[string]any{"value": rep.fo.Root()})
		return
	}
	nodeID, err := strconv.Atoi(q)
	if err != nil {
		writeErr(w, apiError{http.StatusBadRequest, "bad node id"})
		return
	}
	v, err := rep.fo.ValueID(nodeID)
	if err != nil {
		writeErr(w, apiError{http.StatusNotFound, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": nodeID, "value": v})
}

// handleSnapshot re-serializes the replica: followers can seed further
// followers (fan-out) without touching the leader.
func (f *followerServer) handleSnapshot(w http.ResponseWriter, r *http.Request, rep *replica) {
	data, err := rep.fo.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
