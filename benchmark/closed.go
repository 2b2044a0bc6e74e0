package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dyntc"
	"dyntc/internal/prng"
	"dyntc/internal/tree"
)

// The two closed-loop, single-goroutine workloads: struct-64k and
// label-path-64k. One caller issues batch calls on a dyntc.Expr back to
// back; a request is one batch call.

// cycler generates a closed-loop program one cycle at a time.
type cycler interface {
	warmup() []request
	cycle() []request
}

type closedWorkload struct {
	name   string
	leaves int
	shape  tree.Shape
	// opts configures the Expr the workload measures (and the ladder's top rung).
	opts   func(nproc int) []dyntc.Option
	newGen func(seed uint64, t *tree.Tree) cycler
	// ladder names the rungs bottom-up; the last one is the workload itself.
	ladder []string
	// traceCycles is the fixed length of the traced program.
	traceCycles int
}

func structWorkload(quick bool) *closedWorkload {
	w := &closedWorkload{
		name: "struct-64k", leaves: 65536, shape: tree.ShapeRandom,
		opts:        func(nproc int) []dyntc.Option { return []dyntc.Option{dyntc.WithWorkers(nproc)} },
		ladder:      []string{"tree", "rbsts", "core", "pram"},
		traceCycles: 8,
	}
	maxK := 256
	if quick {
		w.leaves, w.traceCycles, maxK = 1024, 1, 32
	}
	w.newGen = func(seed uint64, t *tree.Tree) cycler { return newChurnGen(seed, t, maxK) }
	return w
}

func labelWorkload(quick bool) *closedWorkload {
	w := &closedWorkload{
		name: "label-path-64k", leaves: 65536, shape: tree.ShapeLeftComb,
		opts:        func(int) []dyntc.Option { return nil },
		ladder:      []string{"tree", "rbsts", "core"},
		traceCycles: 96,
	}
	if quick {
		w.leaves, w.traceCycles = 1024, 1
	}
	w.newGen = func(seed uint64, t *tree.Tree) cycler { return newLabelGen(seed, t, 64) }
	return w
}

// setupReps is how many times a run sets up; setup_s is their median and
// the last one is the system that gets measured.
const setupReps = 3

type closedSystem struct {
	snap []byte // the initial tree, in the snapshot codec
	be   *exprBackend
	gen  cycler
}

// setup is what setup_s times: generate the tree, encode it, restore an
// Expr from it, build the generator and run the warm-up requests.
func (w *closedWorkload) setup(cfg config) (*closedSystem, error) {
	t := genTree(dataSeed, w.leaves, w.shape)
	snap, err := snapshotOf(t)
	if err != nil {
		return nil, err
	}
	be, err := restoreExprs([][]byte{snap}, w.opts(cfg.nproc)...)
	if err != nil {
		return nil, err
	}
	s := &closedSystem{snap: snap, be: be, gen: w.newGen(cfg.seed, t)}
	for _, r := range s.gen.warmup() {
		be.apply(&r)
	}
	return s, nil
}

func (w *closedWorkload) measure(cfg config) (*result, error) {
	var sys *closedSystem
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sys = nil
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys = s
	}
	debug.FreeOSMemory()
	resetPeakRSS()

	var lat []int64
	var class []classKey // of each request, parallel to lat
	var reads [][]int64  // results of every read request, in order
	ops, cycles := 0, 0
	cpu0, start := selfCPU(), time.Now()
	deadline := start.Add(cfg.duration())
	for cycles == 0 || time.Now().Before(deadline) {
		prog := sys.gen.cycle()
		for i := range prog {
			t0 := time.Now()
			out := sys.be.apply(&prog[i])
			lat = append(lat, int64(time.Since(t0)))
			class = append(class, classKey{prog[i].ops[0].kind, len(prog[i].ops)})
			ops += len(prog[i].ops)
			if out != nil {
				reads = append(reads, out)
			}
		}
		cycles++
		if cfg.quick {
			break
		}
	}
	wall, cpu := time.Since(start), selfCPU()-cpu0
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	e := sys.be.exprs[0]
	final, err := e.Snapshot(0)
	if err != nil {
		return nil, fmt.Errorf("final snapshot: %w", err)
	}
	recovered, err := restoredRoot(final, w.opts(cfg.nproc)...)
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.attempted = len(lat)
	res.verr = w.verify(cfg, sys, cycles, reads, recovered)
	if res.verr != nil {
		res.failed = 1
	}
	sorted := sortedCopy(lat)
	p99, used := tailPercentile(sorted, 0.99)
	res.set("setup_s", medianFloat(setups))
	typical := typicalCycle(lat, class, cycles)
	rate := float64(ops) / float64(cycles) / typical.Seconds()
	res.set("ops_per_s", rate)
	res.set("req_p50_us", float64(percentile(sorted, 0.5))/1e3)
	res.set("cpu_ms_per_kop", cpu.Seconds()/wall.Seconds()*1e6/rate)
	res.set("peak_rss_mb", rss)
	res.note("%d cycles, %d requests, %d ops in %.2fs: mean %.0f ops/s, typical cycle %.1f ms, %.2f cores busy",
		cycles, len(lat), ops, wall.Seconds(), float64(ops)/wall.Seconds(), typical.Seconds()*1e3, cpu.Seconds()/wall.Seconds())
	res.note("tails: p90 %.1f us, p99 %.1f us (p%.2f of %d samples)",
		float64(percentile(sorted, 0.9))/1e3, float64(p99)/1e3, used*100, len(lat))
	return res, nil
}

// restoredRoot restores the final snapshot and reads its root: the state a
// restart would come back with, for the oracle to check.
func restoredRoot(final []byte, opts ...dyntc.Option) (int64, error) {
	e, _, err := dyntc.RestoreExpr(final, opts...)
	if err != nil {
		return 0, fmt.Errorf("restore final snapshot: %w", err)
	}
	return e.Root(), nil
}

// classKey tells request classes apart: what the batch does and how big it is.
type classKey struct {
	kind opKind
	k    int
}

// typicalCycle is the duration of one cycle made of typical requests: for
// each class of request in the cycle, how many there are times the class's
// median latency. Throughput and CPU cost are reported against it rather
// than against wall time, because wall time over ten seconds is dominated
// by how many full re-simulations (hundreds of milliseconds each, a dozen
// per run) the op stream happens to draw: ten seeds spread the mean by
// 23% and the typical cycle by a third of that. The re-simulations are
// not lost: they are counted exactly in core.resim_ratio, and the mean is
// printed beside the metric.
func typicalCycle(lat []int64, class []classKey, cycles int) time.Duration {
	byClass := map[classKey][]int64{}
	for i, c := range class {
		byClass[c] = append(byClass[c], lat[i])
	}
	var total float64
	for _, ls := range byClass {
		slices.Sort(ls)
		total += float64(len(ls)) / float64(cycles) * float64(percentile(ls, 0.5))
	}
	return time.Duration(total)
}

// verify replays the program on the naive tree and compares: a sample of
// the reads made along the way, the final root, sampled internal values,
// and the root of the Expr restored from the final snapshot.
func (w *closedWorkload) verify(cfg config, sys *closedSystem, cycles int, reads [][]int64, recovered int64) error {
	oracle, err := treeFrom(sys.snap)
	if err != nil {
		return err
	}
	gen := w.newGen(cfg.seed, oracle)
	ob := &treeBackend{trees: []*tree.Tree{oracle}}
	for _, r := range gen.warmup() {
		ob.apply(&r)
	}
	stride := max(1, len(reads)/8)
	seen := 0
	for c := 0; c < cycles; c++ {
		for _, r := range gen.cycle() {
			ob.apply(&r)
			if k := r.ops[0].kind; k != opValue {
				continue
			}
			if seen%stride == 0 {
				for i, o := range r.ops {
					if want := oracle.EvalAt(oracle.Nodes[o.node]); reads[seen][i] != want {
						return fmt.Errorf("read %d: value at node %d is %d, naive evaluation says %d",
							seen, o.node, reads[seen][i], want)
					}
				}
			}
			seen++
		}
	}
	if seen != len(reads) {
		return fmt.Errorf("oracle saw %d read requests, the run made %d", seen, len(reads))
	}
	e := sys.be.exprs[0]
	ids := sampleInternals(oracle, prng.New(cfg.seed), 32, len(oracle.Nodes))
	nodes := make([]*tree.Node, len(ids))
	for i, id := range ids {
		nodes[i] = e.Tree().Nodes[id]
		if nodes[i] == nil {
			return fmt.Errorf("node %d is live in the oracle and dead in the Expr", id)
		}
	}
	if err := checkAgainst(oracle, ids, e.Root(), e.Values(nodes)); err != nil {
		return err
	}
	if want := oracle.Eval(); recovered != want {
		return fmt.Errorf("restored snapshot's root is %d, naive evaluation says %d", recovered, want)
	}
	return nil
}

func (w *closedWorkload) traced(cfg config) (*result, error) {
	t := genTree(dataSeed, w.leaves, w.shape)
	snap, err := snapshotOf(t)
	if err != nil {
		return nil, err
	}
	snaps := [][]byte{snap}
	gen := w.newGen(cfg.seed, t)
	warm := gen.warmup()
	var prog []request
	for c := 0; c < w.traceCycles; c++ {
		prog = append(prog, gen.cycle()...)
	}
	_, ops := programOf(prog)

	res := newResult()
	tr := newTracer(w.name)
	l, err := replayRungs(w.ladder, snaps, cfg, warm, prog, tr)
	if err != nil {
		return nil, err
	}
	ladderMetrics(res, l.runs)
	l.ctr.report(res, ops)
	if w.ladder[len(w.ladder)-1] == "pram" {
		reportSched(res, l.ctr.Waves, l.sched[0], l.sched[1])
	}

	// Reads and writes split, for the workload that has both.
	byName := map[string]rungRun{}
	for _, r := range l.runs {
		byName[r.name] = r
	}
	coreRun, below := byName["core"], byName["rbsts"]
	setNS := coreRun.kindNS[opSetLeaf] + coreRun.kindNS[opSetOp] - below.kindNS[opSetLeaf] - below.kindNS[opSetOp]
	if n := coreRun.kindOps[opSetLeaf] + coreRun.kindOps[opSetOp]; n > 0 {
		res.set("core.set_us_per_op", float64(setNS)/1e3/float64(n))
	}
	if n := coreRun.kindOps[opValue]; n > 0 {
		res.set("core.value_us_per_op", float64(coreRun.kindNS[opValue]-below.kindNS[opValue])/1e3/float64(n))
	}

	// The top rung once more with no span recording: the difference is
	// what tracing costs.
	bare, err := replayRungs(w.ladder[len(w.ladder)-1:], snaps, cfg, warm, prog, nil)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_ratio", l.runs[len(l.runs)-1].usPerOp/bare.runs[0].usPerOp-1)
	reportTails(res, bare.runs[0].lat)

	res.attempted = len(prog)
	return res, finishTraced(cfg, res, tr, prog, l.ctr)
}
