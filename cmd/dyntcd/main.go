// Command dyntcd serves batch-dynamic expression trees over HTTP/JSON.
//
// Every tree is backed by dynamic parallel tree contraction (Reif & Tate,
// SPAA'94) behind a concurrent request-coalescing engine: concurrent
// requests against one tree amortize into the paper's §1.4 batches, and
// every tree has its own engine so independent trees proceed fully in
// parallel.
//
// Usage:
//
//	dyntcd -addr :8080
//	dyntcd -addr :8080 -queue 16384   # deeper per-tree queue before 429s
//	dyntcd -addr :8080 -wal-dir /var/lib/dyntcd   # durable wave log
//	dyntcd -addr :8080 -wal-dir d -compact-every 10000  # + WAL compaction
//	dyntcd -addr :8081 -follow http://leader:8080 # read replica, same read API
//	dyntcd -addr :8081 -follow http://leader:8080 -wal-dir d   # durable replicas
//	dyntcd -addr :8080 -faults 'wal.append:after=100:torn=0.5:times=1' -fault-seed 7
//
// A tree's wave phases run on its engine's executor goroutine, and its
// PRAM steps run inline there: the PRAM machine meters rounds, work and
// processors, it does not schedule. Cross-tree query scatter and, in
// -follow mode, replica catch-up fan out on plain goroutines. Each HTTP
// operation is one engine request, a /batch included. Each engine flushes
// whatever is queued the moment its executor goes idle, up to -queue ops;
// a request whose ops would take the queued ops past -queue answers 429
// (a larger /batch is admitted only into an empty queue).
//
// Durability & replication (internal/replog): every tree's engine taps
// its executed mutating waves into a change log — an in-memory ring of
// -log-cap waves serving GET /v1/trees/{id}/log?since=SEQ, plus, with
// -wal-dir set, an append-only <dir>/tree-<id>.wal file. Snapshots
// (GET/PUT /v1/trees/{id}/snapshot) capture a tree's exact state through
// an engine barrier. In -follow mode the same server serves read-only
// replicas of every leader tree as engines in its forest, each a store
// entry like a leader's tree: snapshot bootstrap (the replica's anchor),
// then verified in-order wave replay (Engine.ApplyWave) into the
// replica's own log, re-bootstrapping when it falls behind the leader's
// ring. Every read endpoint, the log tail included, is shared by both
// roles; writes answer 403 while following. GET /v1/healthz reports
// per-tree applied sequence numbers (and, on a follower, lag).
//
// Failover: every wave and snapshot is stamped with a leadership epoch.
// POST /v1/promote on a follower flips it to leading in place — each
// replica engine moves to epoch+1 in place and then re-anchors — and
// the old leader, once it observes the newer term (via
// the demote call the promotion fires, an explicit POST /v1/demote, or a
// follower's X-Dyntc-Epoch header on log fetches), fences itself
// read-only: writes 403, reads and the log tail keep flowing. Waves from
// the demoted term are rejected by every log and replica that has seen
// the new one (epoch fencing). A server started over a -wal-dir from a
// crash recovers at startup, in either role: each tree-<id>.snap
// restores, the WAL tail past it replays (a torn tail is truncated, not
// fatal), and serving resumes from a fresh snapshot + WAL pair; a
// follower then resumes each log tail at its recovered sequence. A
// follower that cannot reach its leader keeps serving reads in explicit
// degraded mode — healthz turns 503 after 3 consecutive failed polls or
// the -degraded-after staleness bound, reads carry X-Dyntc-Staleness-Ms,
// and the poll loop backs off exponentially with seeded jitter.
// -faults/-fault-seed drive the deterministic fault-injection harness
// (see dyntc.FaultInjector) at sites engine.wave, wal.append, wal.sync
// and follower.rpc.
//
// Cross-tree queries (internal/query): POST /v1/query scatters one read
// (root value, node value, subtree size) over any subset of the forest —
// explicit ids, an id range, or every tree — and joins the answers with a
// combiner (sum/min/max/count or a semiring add/mul), reporting each
// tree's applied-wave sequence. Followers serve the same endpoint from
// their replicas, so dashboards can offload cross-tree reads entirely
// onto replicas. With -wal-dir and -compact-every N each tree's WAL is
// compacted every N waves: one engine barrier snapshots the tree and cuts
// the WAL there (tree-<id>.wal becomes tree-<id>.wal.prev and a fresh
// tree-<id>.wal continues), then the snapshot is written as
// <wal-dir>/tree-<id>.snap and tree-<id>.wal.prev is deleted. The ring is
// not trimmed: it keeps its -log-cap waves, so followers keep tailing.
//
// Quick session:
//
//	curl -X POST localhost:8080/v1/trees -d '{"root":1}'
//	curl -X POST localhost:8080/v1/trees/1/grow -d '{"leaf":0,"op":"add","left":3,"right":4}'
//	curl localhost:8080/v1/trees/1/value
//	curl -o tree-1.snap localhost:8080/v1/trees/1/snapshot   # binary
//	curl 'localhost:8080/v1/trees/1/log?since=0'
//	curl localhost:8080/v1/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyntc"
)

// fatal logs one structured error line and exits, the slog replacement
// for log.Fatalf.
func fatal(msg string, attrs ...any) {
	slog.Error(msg, attrs...)
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		queue    = flag.Int("queue", 0, "per-tree submit queue capacity in ops (past it, requests answer 429), which also bounds one flush (0 = default 4096)")
		walDir   = flag.String("wal-dir", "", "directory for append-only per-tree wave logs ('' = in-memory ring only)")
		logCap   = flag.Int("log-cap", 0, "waves retained in each tree's in-memory log ring (0 = default 4096)")
		follow   = flag.String("follow", "", "leader base URL: run as a read-only replica of that dyntcd")
		poll     = flag.Duration("poll", 50*time.Millisecond, "follower mode: leader poll interval")
		compact  = flag.Int("compact-every", 0, "with -wal-dir, compact each tree's WAL every N waves: cut it at a snapshot, written to <wal-dir>/tree-<id>.snap; the ring is not trimmed (0 = off)")
		degAfter = flag.Duration("degraded-after", 2*time.Second, "follower mode: staleness bound before reporting degraded (0 = only the consecutive-error threshold)")

		faultSpec = flag.String("faults", "", "deterministic fault schedule, e.g. 'wal.append:after=100:torn=0.5:times=1;follower.rpc:p=0.2:err=partition' (chaos testing; '' = off)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed driving the -faults schedule (same seed + same traffic = same faults)")

		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address ('' = off)")
		slowWave    = flag.Duration("slow-wave", 0, "log a structured trace of every wave flush at least this long (0 = off)")
		accessLog   = flag.Bool("access-log", false, "log every HTTP request: method, path, status, bytes, duration")
		traceSample = flag.Int("trace-sample", 0, "record every Nth wave flush as spans on GET /v1/spans (0 = default 16)")
		eventLog    = flag.String("event-log", "", "mirror every lifecycle event to this append-only JSONL file ('' = off)")

		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "dyntcd: -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}

	// One observability hub per process; every engine, the wave logs and
	// the query planner report into it (GET /metrics, /v1/spans,
	// /v1/events, /v1/debug/bundle).
	proc := "leader"
	if *follow != "" {
		proc = "follower"
	}
	hub, err := dyntc.NewObs(dyntc.ObsConfig{
		Proc: proc, TraceSample: *traceSample,
		EventPath: *eventLog, SlowWave: *slowWave,
	})
	if err != nil {
		fatal("observability init", "err", err)
	}
	defer hub.Close()
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	// Deterministic fault schedule (chaos testing): a crash rule takes the
	// whole process down, like the real fault it stands in for.
	var faults *dyntc.FaultInjector
	if *faultSpec != "" {
		var err error
		if faults, err = dyntc.FaultInjectorFromSpec(*faultSeed, *faultSpec); err != nil {
			fatal("bad -faults spec", "err", err)
		}
		faults.OnCrash(func(site string, _ dyntc.FaultRule) {
			fatal("injected crash", "site", site)
		})
	}

	if *walDir != "" {
		// Both roles log every tree into it.
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal("wal dir", "err", err)
		}
	}
	opts := dyntc.BatchOptions{Queue: *queue, Faults: faults, Obs: hub}

	s := newServerWAL(opts, *walDir, *logCap)
	s.store.compactEvery = *compact
	if *follow != "" {
		s.follow(*follow, *poll).degradedAfter = *degAfter
	}
	s.setFaults(faults, *faultSeed)
	// A follower resumes each recovered replica's log tail.
	if err := s.store.recover(); err != nil {
		fatal("startup recovery", "err", err)
	}
	if f := s.following.Load(); f != nil {
		f.start()
	}
	var handler http.Handler = s.routes()
	if *accessLog {
		handler = withAccessLog(handler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	slog.Info("dyntcd listening", "addr", *addr, "role", s.role(), "follow", *follow,
		"queue", *queue, "wal", *walDir)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve", "err", err)
	}
	// ListenAndServe returns as soon as Shutdown *starts*; wait for it to
	// finish draining in-flight handlers, then stop the poll loop, drain
	// every engine's queue and flush the wave logs — the graceful path
	// loses no acknowledged write and no logged wave.
	stop()
	<-shutdownDone
	s.close()
	slog.Info("drained and stopped")
}
