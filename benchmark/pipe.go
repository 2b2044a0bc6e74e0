package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dyntc"
	"dyntc/internal/prng"
	"dyntc/internal/tree"
)

// engine-pipe: Expr.Serve(BatchOptions{}) over a 16 384-leaf random tree,
// fed by nproc producer goroutines that each keep pipeDepth futures in
// flight. A request is one asynchronous op; its latency runs from submit
// to the moment the producer redeems the future.

const (
	pipeLeaves = 16384
	pipeDepth  = 64   // futures each producer keeps in flight
	pipeWarmup = 4096 // ops each producer issues before timing starts
)

// engineBackend drives engines the way dyntcd's batch handler does: every
// op of a request is submitted as its own future, then all are awaited.
type engineBackend struct {
	forest  *dyntc.Forest // nil when serving a single Expr
	engines []*dyntc.Engine
	futs    []*dyntc.Future
	failed  int
}

func submit(en *dyntc.Engine, o *op) *dyntc.Future {
	switch o.kind {
	case opGrow:
		return en.GrowIDAsync(int(o.node), opOf(o.mul), o.a, o.b)
	case opCollapse:
		return en.CollapseIDAsync(int(o.node), o.a)
	case opSetLeaf:
		return en.SetLeafIDAsync(int(o.node), o.a)
	case opSetOp:
		return en.SetOpIDAsync(int(o.node), opOf(o.mul))
	case opValue:
		return en.ValueIDAsync(int(o.node))
	}
	return en.RootAsync()
}

func (b *engineBackend) apply(r *request) []int64 {
	if r.tree < 0 {
		res, err := b.forest.Query(dyntc.ForestQuery{Read: dyntc.ReadRoot(), Combine: dyntc.CombineSum()})
		if err != nil || res.Errors > 0 {
			b.failed++
		}
		return []int64{res.Combined}
	}
	en := b.engines[r.tree]
	b.futs = b.futs[:0]
	for i := range r.ops {
		b.futs = append(b.futs, submit(en, &r.ops[i]))
	}
	var out []int64
	for i, f := range b.futs {
		v, err := f.Value()
		f.Recycle()
		if err != nil {
			b.failed++
		}
		if k := r.ops[i].kind; k == opValue || k == opRoot {
			out = append(out, v)
		}
	}
	return out
}

type pipeSystem struct {
	snap []byte
	expr *dyntc.Expr
	en   *dyntc.Engine
	gens []*pipeGen
	sent []int // ops each producer has issued, warm-up included
}

// pipeStats is one pipelined run.
type pipeStats struct {
	lat     []int64 // per request, ns
	windows []int   // ops completed per window
	ops     int
	failed  int
	wall    time.Duration
}

// run lets every producer issue ops for dur (or exactly n ops each when
// n > 0), pipeDepth deep.
func (s *pipeSystem) run(dur time.Duration, n int, window time.Duration) pipeStats {
	type slot struct {
		f  *dyntc.Future
		t0 time.Time
	}
	per := make([]pipeStats, len(s.gens))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for p := range s.gens {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g, st := s.gens[p], &per[p]
			var ring [pipeDepth]slot
			head, inflight := 0, 0
			redeem := func() {
				sl := &ring[head]
				head = (head + 1) % pipeDepth
				inflight--
				err := sl.f.Wait()
				sl.f.Recycle()
				now := time.Now()
				st.lat = append(st.lat, int64(now.Sub(sl.t0)))
				if err != nil {
					st.failed++
				}
				if window > 0 {
					w := int(now.Sub(start) / window)
					for len(st.windows) <= w {
						st.windows = append(st.windows, 0)
					}
					st.windows[w]++
				}
			}
			for i := 0; n <= 0 || i < n; i++ {
				if inflight == pipeDepth {
					redeem()
				}
				o := g.next()
				t0 := time.Now()
				if n <= 0 && !t0.Before(end) {
					break
				}
				ring[(head+inflight)%pipeDepth] = slot{submit(s.en, &o), t0}
				inflight++
				s.sent[p]++
			}
			for inflight > 0 {
				redeem()
			}
		}(p)
	}
	wg.Wait()
	out := pipeStats{wall: time.Since(start)}
	for p := range per {
		out.lat = append(out.lat, per[p].lat...)
		out.failed += per[p].failed
		for w, c := range per[p].windows {
			for len(out.windows) <= w {
				out.windows = append(out.windows, 0)
			}
			out.windows[w] += c
		}
	}
	out.ops = len(out.lat)
	return out
}

func pipeSizes(cfg config) (leaves, warm int) {
	if cfg.quick {
		return 1024, 256
	}
	return pipeLeaves, pipeWarmup
}

func pipeSetup(cfg config) (*pipeSystem, error) {
	leaves, warm := pipeSizes(cfg)
	t := genTree(dataSeed, leaves, tree.ShapeRandom)
	snap, err := snapshotOf(t)
	if err != nil {
		return nil, err
	}
	e, _, err := dyntc.RestoreExpr(snap)
	if err != nil {
		return nil, fmt.Errorf("restore expr: %w", err)
	}
	s := &pipeSystem{snap: snap, expr: e, en: e.Serve(dyntc.BatchOptions{}),
		gens: newPipeGens(cfg.seed, t, cfg.nproc), sent: make([]int, cfg.nproc)}
	s.run(0, warm, 0)
	return s, nil
}

func pipeMeasure(cfg config) (*result, error) {
	var sys *pipeSystem
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.en.Close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := pipeSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	debug.FreeOSMemory()
	resetPeakRSS()

	dur := cfg.duration()
	n := 0
	if cfg.quick {
		n = 2048
	}
	cpu0 := selfCPU()
	st := sys.run(dur, n, dur/measureWindows)
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	sys.en.Close()

	final, err := sys.expr.Snapshot(0)
	if err != nil {
		return nil, fmt.Errorf("final snapshot: %w", err)
	}
	recovered, err := restoredRoot(final)
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.attempted, res.failed = st.ops, st.failed
	res.verr = sys.verify(cfg, recovered)
	if res.verr != nil {
		res.failed++
	}
	sorted := sortedCopy(st.lat)
	p99, used := tailPercentile(sorted, 0.99)
	res.set("setup_s", medianFloat(setups))
	res.set("ops_per_s", windowRate(st.windows, dur/measureWindows, float64(st.ops)/st.wall.Seconds()))
	res.set("req_p50_us", float64(percentile(sorted, 0.5))/1e3)
	res.set("cpu_ms_per_kop", cpu.Seconds()*1e3/(float64(st.ops)/1e3))
	res.set("peak_rss_mb", rss)
	res.note("%d producers x %d in flight, %d ops in %.2fs (mean %.0f ops/s); tails: p90 %.1f us, p99 %.1f us (p%.3f of %d samples)",
		len(sys.gens), pipeDepth, st.ops, st.wall.Seconds(), float64(st.ops)/st.wall.Seconds(),
		float64(percentile(sorted, 0.9))/1e3, float64(p99)/1e3, used*100, st.ops)
	return res, nil
}

// verify replays every producer's stream on the naive tree. Producers
// write disjoint nodes, so the order between them does not matter.
func (s *pipeSystem) verify(cfg config, recovered int64) error {
	oracle, err := treeFrom(s.snap)
	if err != nil {
		return err
	}
	initial := len(oracle.Nodes)
	ob := &treeBackend{trees: []*tree.Tree{oracle}}
	for p, g := range newPipeGens(cfg.seed, oracle, len(s.gens)) {
		for i := 0; i < s.sent[p]; i++ {
			ob.apply(&request{ops: []op{g.next()}})
		}
	}
	// Only nodes of the initial tree keep their IDs across interleavings.
	ids := sampleInternals(oracle, prng.New(cfg.seed), 32, initial)
	nodes := make([]*tree.Node, len(ids))
	for i, id := range ids {
		nodes[i] = s.expr.Tree().Nodes[id]
	}
	if err := checkAgainst(oracle, ids, s.expr.Root(), s.expr.Values(nodes)); err != nil {
		return err
	}
	if want := oracle.Eval(); recovered != want {
		return fmt.Errorf("restored snapshot's root is %d, naive evaluation says %d", recovered, want)
	}
	return nil
}

// pipeTraceOps is the traced program's length per producer.
const pipeTraceOps = 40000

func pipeTraced(cfg config) (*result, error) {
	leaves, warmN := pipeSizes(cfg)
	perProducer := pipeTraceOps
	if cfg.quick {
		perProducer = 512
	}
	t := genTree(dataSeed, leaves, tree.ShapeRandom)
	snap, err := snapshotOf(t)
	if err != nil {
		return nil, err
	}
	// The producers' streams merged round-robin into one closed-loop program.
	gens := newPipeGens(cfg.seed, t, cfg.nproc)
	merged := func(n int) []request {
		out := make([]request, 0, n*len(gens))
		for i := 0; i < n; i++ {
			for _, g := range gens {
				out = append(out, request{ops: []op{g.next()}})
			}
		}
		return out
	}
	warm, prog := merged(warmN), merged(perProducer)

	res := newResult()
	tr := newTracer("engine-pipe")
	engineRung := func(tr *tracer) (rungRun, error) {
		runtime.GC()
		e, _, err := dyntc.RestoreExpr(snap)
		if err != nil {
			return rungRun{}, fmt.Errorf("restore expr: %w", err)
		}
		en := e.Serve(dyntc.BatchOptions{})
		defer en.Close()
		be := &engineBackend{engines: []*dyntc.Engine{en}}
		for i := range warm {
			be.apply(&warm[i])
		}
		run := replay("engine", be, prog, tr)
		if be.failed > 0 {
			return run, fmt.Errorf("engine rung: %d ops failed", be.failed)
		}
		return run, nil
	}
	l, err := replayRungs([]string{"tree", "rbsts", "core"}, [][]byte{snap}, cfg, warm, prog, tr)
	if err != nil {
		return nil, err
	}
	top, err := engineRung(tr)
	if err != nil {
		return nil, err
	}
	ladderMetrics(res, append(l.runs, top))
	l.ctr.report(res, int64(len(prog)))
	bare, err := engineRung(nil)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_ratio", top.usPerOp/bare.usPerOp-1)

	// The engine's own counters only mean something under the workload's
	// real load, so the pipelined run is repeated here, briefly.
	sys, err := pipeSetup(cfg)
	if err != nil {
		return nil, err
	}
	before := sys.en.Stats()
	n := 0
	if cfg.quick {
		n = 2048
	}
	st := sys.run(cfg.duration()/4, n, 0)
	after := sys.en.Stats()
	sys.en.Close()
	reportEngine(res, before, after)
	res.set("loadgen.fail_ratio", float64(st.failed)/float64(st.ops))
	reportTails(res, st.lat)

	res.attempted, res.failed = len(prog)+st.ops, st.failed
	res.note("probe: %d pipelined ops in %.2fs", st.ops, st.wall.Seconds())
	return res, finishTraced(cfg, res, tr, prog, l.ctr)
}

// reportEngine sets the engine.* metrics from two Engine.Stats snapshots.
func reportEngine(res *result, before, after dyntc.EngineStats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	reqs, flushes, waves := d(after.Requests, before.Requests), d(after.Flushes, before.Flushes), d(after.Waves, before.Waves)
	if flushes > 0 {
		res.set("engine.mean_flush", reqs/flushes)
	}
	if waves > 0 {
		res.set("engine.mean_wave", reqs/waves)
	}
	if structural := d(after.Grows, before.Grows) + d(after.Collapses, before.Collapses); structural > 0 {
		res.set("engine.resim_ratio", d(after.Resimulations, before.Resimulations)/structural)
	}
	res.set("engine.flush_p50_us", after.FlushP50US)
	res.set("engine.flush_p99_us", after.FlushP99US)
	res.set("engine.shed", d(after.Shed, before.Shed))
	res.set("engine.dropped", d(after.Dropped, before.Dropped))
}
