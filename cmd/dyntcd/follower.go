package main

// Following (-follow <leader-url>): the server replicates every tree a
// leader dyntcd serves. Each replica is an engine in the server's own
// forest and an entry in its store, born through store.adopt like a
// leader's tree: it bootstraps from GET /v1/trees/{id}/snapshot, which
// becomes its anchor, and then tails GET /v1/trees/{id}/log?since=SEQ,
// reading each tail, WAL bytes, with the WAL's decoder and applying its
// waves in order through Engine.ApplyWave, the verified replay of
// internal/replog (recorded grow IDs and post-wave roots are checked on
// every wave). Each applied wave reaches the replica's own log first —
// its ring, which another follower can tail, and with -wal-dir its WAL —
// so a restarted follower recovers its replicas from disk and resumes
// the log tail where it stopped. A replica behind the leader's log ring
// or ahead of its log (410 Gone), or one that diverges, re-bootstraps
// from a fresh snapshot, swapped in atomically. Reads, queries, healthz
// and metrics are the leader's handlers; writes get 403.
//
// Failover: POST /v1/promote flips the server to leading in place (see
// handlePromote). An unreachable leader does not take the follower down:
// the poll loop backs off exponentially (with seeded jitter) and the
// replicas keep serving reads in explicit degraded mode, reporting their
// staleness bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/prng"
	"dyntc/internal/replog"
)

// degradedErrThreshold is how many consecutive failed leader polls flip
// the follower into degraded mode (healthz 503, staleness headers on
// reads) even before any -degraded-after bound elapses.
const degradedErrThreshold = 3

// backoffCap bounds the exponential poll backoff against a dead leader.
const backoffCap = 5 * time.Second

// follower is a server's replication state while it follows a leader:
// the poll loop, its health, and per-tree poll bookkeeping. The replicas
// themselves are the server's engines.
type follower struct {
	s      *server
	leader string // leader base URL, no trailing slash
	poll   time.Duration
	client *http.Client

	// degradedAfter is the staleness bound: longer than this without a
	// successful leader contact means degraded mode (0 = only the
	// consecutive-error threshold applies).
	degradedAfter time.Duration

	mu   sync.Mutex
	reps map[dyntc.TreeID]*replica

	// errMu guards the poll-loop health state: consecutive failed rounds,
	// the current backoff, and the last successful leader contact.
	errMu       sync.Mutex
	consecErrs  int
	backoff     time.Duration
	lastContact time.Time
	jitter      *prng.Source

	// promoting serializes POST /v1/promote.
	promoting sync.Mutex
	quit      chan struct{}
	quitOnce  sync.Once
	loop      sync.WaitGroup
}

// replica is one followed tree's poll bookkeeping.
type replica struct {
	mu        sync.Mutex
	leaderSeq uint64 // X-Dyntc-Last-Seq of the leader's last log tail
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

// follow puts s in the following state, replicating leader's trees every
// poll interval. Start the poll loop with start.
func (s *server) follow(leader string, poll time.Duration) *follower {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	f := &follower{
		s:           s,
		leader:      leader,
		poll:        poll,
		client:      &http.Client{Timeout: 30 * time.Second},
		reps:        make(map[dyntc.TreeID]*replica),
		lastContact: time.Now(),
		jitter:      prng.New(uint64(time.Now().UnixNano())),
		quit:        make(chan struct{}),
	}
	s.following.Store(f)
	return f
}

// setFaults installs the deterministic fault schedule: it rides into every
// tree's WAL ("wal.append"/"wal.sync") and, while following, onto the
// leader transport ("follower.rpc"), re-seeding the backoff jitter from
// seed so a chaos run's timing is reproducible.
func (s *server) setFaults(in *dyntc.FaultInjector, seed uint64) {
	s.store.faults = in
	f := s.following.Load()
	if in == nil || f == nil {
		return
	}
	f.jitter = prng.New(seed ^ 0xD6E8FEB86659FD93)
	base := f.client.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	f.client.Transport = &faultTransport{base: base, in: in}
}

// start runs the catch-up loop in the background until halt.
func (f *follower) start() {
	f.loop.Add(1)
	go func() {
		defer f.loop.Done()
		f.run()
	}()
}

// halt stops the catch-up loop and waits for it to exit; it returns at
// once when the loop never started.
func (f *follower) halt() {
	f.quitOnce.Do(func() { close(f.quit) })
	f.loop.Wait()
}

// run is the catch-up loop: discover trees, bootstrap new ones, tail
// logs. Failed rounds back off exponentially (capped, jittered) instead
// of hammering a dead or partitioned leader at the poll interval.
func (f *follower) run() {
	for {
		delay := f.noteRound(f.syncOnce())
		select {
		case <-f.quit:
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
func (f *follower) noteRound(ok bool) time.Duration {
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
		f.s.obs.Events().Emit(obs.EvDegradedEnter,
			"leader unreachable: serving reads in degraded mode",
			map[string]any{"consecutive_errors": consec, "staleness_ms": outage.Milliseconds()})
	} else if wasDegraded && !nowDegraded {
		f.s.obs.Events().Emit(obs.EvDegradedExit,
			"leader contact restored",
			map[string]any{"outage_ms": outage.Milliseconds()})
	}
	return delay
}

// degradedLocked is the degraded predicate; callers hold errMu.
func (f *follower) degradedLocked() bool {
	return f.consecErrs >= degradedErrThreshold ||
		(f.degradedAfter > 0 && time.Since(f.lastContact) > f.degradedAfter)
}

// health returns the poll-loop state and whether the follower is
// degraded: too many consecutive failed rounds, or longer than the
// configured staleness bound since the last successful leader contact.
func (f *follower) health() (degraded bool, staleness time.Duration, consecErrs int, backoff time.Duration) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.degradedLocked(), time.Since(f.lastContact), f.consecErrs, f.backoff
}

// healthFields adds the poll loop's health to m and reports whether the
// follower is degraded.
func (f *follower) healthFields(m map[string]any) bool {
	degraded, staleness, consecErrs, backoff := f.health()
	m["degraded"] = degraded
	m["staleness_ms"] = staleness.Milliseconds()
	m["consecutive_errors"] = consecErrs
	m["backoff_ms"] = backoff.Milliseconds()
	return degraded
}

func (f *follower) getJSON(path string, v any) error {
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
// A halted follower's rounds are no-ops: the forest is no longer theirs.
func (f *follower) syncOnce() bool {
	select {
	case <-f.quit:
		return true
	default:
	}
	var list struct {
		Trees []struct {
			Tree dyntc.TreeID `json:"tree"`
		} `json:"trees"`
	}
	if err := f.getJSON("/v1/trees", &list); err != nil {
		slog.Warn("follower: list trees failed", "err", err)
		return false
	}
	// Per-tree catch-up (log tail fetch + verified replay) fans out to at
	// most GOMAXPROCS goroutines, so many replicas catch up in parallel
	// without a goroutine per tree.
	live := make(map[dyntc.TreeID]bool, len(list.Trees))
	ids := make(chan dyntc.TreeID)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(list.Trees)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				f.syncTree(id)
			}
		}()
	}
	for _, ti := range list.Trees {
		live[ti.Tree] = true
		ids <- ti.Tree
	}
	close(ids)
	wg.Wait()
	// Drop replicas of trees the leader no longer serves.
	var gone []dyntc.TreeID
	f.s.forest.Each(func(id dyntc.TreeID, _ *dyntc.Engine) {
		if !live[id] {
			gone = append(gone, id)
		}
	})
	for _, id := range gone {
		f.s.store.drop(id)
		f.mu.Lock()
		delete(f.reps, id)
		f.mu.Unlock()
	}
	return true
}

// replica returns tree id's poll bookkeeping, made on first use: a
// replica recovered from disk has none before its first poll.
func (f *follower) replica(id dyntc.TreeID) *replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := f.reps[id]
	if rep == nil {
		rep = &replica{}
		f.reps[id] = rep
	}
	return rep
}

// bootstrap fetches a fresh snapshot and serves it as replica id through
// the store, swapping it in for the current replica, if any, in one
// engine barrier.
func (f *follower) bootstrap(id dyntc.TreeID) (*dyntc.Engine, error) {
	t0 := time.Now()
	resp, err := f.client.Get(fmt.Sprintf("%s/v1/trees/%d/snapshot", f.leader, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot: %s", resp.Status)
	}
	data, err := readBody(resp.Body)
	if err != nil {
		return nil, err
	}
	en, seq, rebootstrap, err := f.s.store.serveReplica(id, data)
	if err != nil {
		return nil, err
	}
	f.s.snapshotDone(len(data), time.Since(t0))
	rep := f.replica(id)
	rep.mu.Lock()
	rep.leaderSeq, rep.lastErr = seq, ""
	rep.mu.Unlock()
	if rebootstrap {
		f.s.inst.rebootstraps.Inc()
		f.s.obs.Events().EmitTree(obs.EvRebootstrap, uint64(id),
			"replica rebuilt from a fresh snapshot",
			map[string]any{"seq": seq, "bytes": len(data)})
	}
	slog.Info("follower: tree bootstrapped", "tree", id, "seq", seq)
	return en, nil
}

// syncTree bootstraps tree id if new, then applies the leader's log tail.
func (f *follower) syncTree(id dyntc.TreeID) {
	en, ok := f.s.forest.Get(id)
	if !ok {
		var err error
		if en, err = f.bootstrap(id); err != nil {
			slog.Warn("follower: bootstrap failed", "tree", id, "err", err)
			return
		}
	}
	rep := f.replica(id)

	path := fmt.Sprintf("/v1/trees/%d/log?since=%d", id, en.AppliedSeq())
	req, err := http.NewRequest(http.MethodGet, f.leader+path, nil)
	if err != nil {
		rep.setErr(err)
		return
	}
	// Advertise the leadership term this replica trusts: a stale leader
	// that sees a higher term fences itself read-only (it still serves
	// the tail so the new term can drain it).
	req.Header.Set("X-Dyntc-Epoch", strconv.FormatUint(en.Epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		rep.setErr(err)
		return
	}
	defer resp.Body.Close()
	var waves []dyntc.Wave
	var last uint64
	switch resp.StatusCode {
	case http.StatusOK:
		var data []byte
		if data, err = readBody(resp.Body); err == nil {
			waves, err = replog.DecodeWAL(data)
		}
		if err == nil {
			if last, err = strconv.ParseUint(resp.Header.Get("X-Dyntc-Last-Seq"), 10, 64); err != nil {
				err = fmt.Errorf("%s: bad X-Dyntc-Last-Seq: %w", path, err)
			}
		}
	case http.StatusGone:
		// Behind the leader's ring or ahead of its log: re-bootstrap.
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
	rep.leaderSeq = last
	rep.mu.Unlock()
	// Apply wave by wave so every replicated wave's lag is attributed to
	// its stages — appended→fetched against the leader's WAL timestamp,
	// fetched→applied against the verified replay — and its follower-side
	// spans land in the span log as each wave completes.
	fetched := time.Now()
	for _, wv := range waves {
		if err := en.ApplyWave(wv); err != nil {
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
func (f *follower) observeApply(wv dyntc.Wave, fetched time.Time) {
	if wv.AppendedAt == 0 {
		return
	}
	fetchedNS := fetched.UnixNano()
	fetchLag := fetchedNS - wv.AppendedAt
	if fetchLag < 0 {
		// Cross-process clock skew: clamp rather than poison the histogram.
		fetchLag = 0
	}
	applyLag := time.Now().UnixNano() - fetchedNS
	f.s.inst.repl.AppendedFetched.Observe(fetchLag)
	f.s.inst.repl.FetchedApplied.Observe(applyLag)
	if wv.TraceID == 0 {
		return
	}
	epoch := wv.EpochOrDefault()
	anchor := obs.WaveSpanID(epoch, wv.Seq)
	spans := f.s.obs.Spans()
	spans.Add(obs.Span{
		Trace: obs.SpanID(wv.TraceID), Span: obs.NewSpanID(), Parent: anchor,
		Name: "replica.fetch", Seq: wv.Seq, Epoch: epoch,
		Start: wv.AppendedAt, Dur: fetchLag,
	})
	spans.Add(obs.Span{
		Trace: obs.SpanID(wv.TraceID), Span: obs.NewSpanID(), Parent: anchor,
		Name: "replica.apply", Seq: wv.Seq, Epoch: epoch,
		Start: fetchedNS, Dur: applyLag,
	})
}

func (r *replica) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// replicaHealth is the per-tree poll state healthz adds while following.
type replicaHealth struct {
	LeaderSeq uint64 `json:"leader_seq"`
	Lag       uint64 `json:"lag"`
	Waves     uint64 `json:"waves_applied"`
	LastError string `json:"last_error,omitempty"`
}

// treeHealth returns tree id's poll state against its applied sequence.
func (f *follower) treeHealth(id dyntc.TreeID, applied uint64) *replicaHealth {
	rep := f.replica(id)
	rep.mu.Lock()
	rh := &replicaHealth{LeaderSeq: rep.leaderSeq, Waves: rep.applied, LastError: rep.lastErr}
	rep.mu.Unlock()
	if rh.LeaderSeq > applied {
		rh.Lag = rh.LeaderSeq - applied
	}
	return rh
}

// handlePromote turns a following server into the leader of a new term
// in place: the same engines, mux and logs. It halts the poll loop, tells
// the old leader to fence itself, moves every tree to epoch+1 and flips
// the role (failover_ms). Then it rewrites each tree's anchor at the new
// epoch, so a restart before the first new-term wave stays a term ahead
// of the old leader. A tree whose engine no longer answers a barrier
// leaves the forest and the store; its files stay. A leader answers 404.
//
// The caller is responsible for promoting a caught-up follower: waves
// the old leader acknowledged past each replica's sequence are lost,
// exactly as in any asynchronous-replication failover.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	f := s.following.Load()
	if f == nil {
		http.NotFound(w, r)
		return
	}
	f.promoting.Lock()
	defer f.promoting.Unlock()
	if s.following.Load() == nil { // a concurrent promotion won
		http.NotFound(w, r)
		return
	}
	t0 := time.Now()
	f.halt()
	// Best-effort: if the old leader is dead or partitioned, the epoch
	// fence still rejects its late writes wave by wave. The follower's
	// client bounds the call and passes the follower.rpc fault site.
	go func(epoch uint64) {
		body, _ := json.Marshal(map[string]uint64{"epoch": epoch})
		resp, err := f.client.Post(f.leader+"/v1/demote", "application/json", bytes.NewReader(body))
		if err != nil {
			slog.Warn("demote old leader failed", "leader", f.leader, "err", err)
			return
		}
		resp.Body.Close()
	}(s.maxEpoch() + 1)
	var epoch uint64
	promoted := make(map[dyntc.TreeID]*dyntc.Engine)
	s.forest.Each(func(id dyntc.TreeID, en *dyntc.Engine) {
		ep, err := nextTerm(en)
		if err != nil {
			slog.Error("tree not promoted", "tree", id, "err", err)
			s.store.retire(id)
			s.forest.Drop(id)
			return
		}
		promoted[id] = en
		epoch = max(epoch, ep)
	})
	s.following.Store(nil)
	failoverMS := time.Since(t0).Milliseconds()
	for id, en := range promoted {
		if e := s.store.get(id); e != nil {
			if err := s.store.reanchor(id, en, e); err != nil {
				slog.Error("promotion anchor not written: a restart before the tree's next wave recovers the old epoch",
					"tree", id, "err", err)
			}
		}
	}
	s.inst.promotions.Inc()
	s.obs.Events().Emit(obs.EvPromote, "promoted to leader",
		map[string]any{"trees": len(promoted), "epoch": epoch, "failover_ms": failoverMS})
	slog.Info("promoted to leader", "trees", len(promoted), "epoch", epoch, "failover_ms", failoverMS)
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted":    true,
		"trees":       len(promoted),
		"epoch":       epoch,
		"failover_ms": failoverMS,
	})
}

// nextTerm moves en's Expr (in a barrier), then its wave stamp, into the
// next leadership term and returns the new epoch.
func nextTerm(en *dyntc.Engine) (uint64, error) {
	var next uint64
	if err := en.Query(func(e *dyntc.Expr) {
		next = e.Epoch() + 1
		e.AdoptEpoch(next)
	}); err != nil {
		return 0, err
	}
	en.SetEpoch(next)
	return next, nil
}
