package main

import (
	"fmt"
	"runtime"
	"time"

	"dyntc"
	"dyntc/internal/tree"
)

// The cost ladder shared by every traced run: fresh rungs, one replay of
// the same program on each, layer costs by subtraction.

// newRung builds a fresh backend for one ladder rung over the given trees.
func newRung(name string, snaps [][]byte, cfg config) (backend, error) {
	switch name {
	case "tree", "rbsts":
		var trees []*tree.Tree
		for _, s := range snaps {
			t, err := treeFrom(s)
			if err != nil {
				return nil, err
			}
			trees = append(trees, t)
		}
		if name == "tree" {
			return &treeBackend{trees: trees}, nil
		}
		return newRbstsBackend(trees), nil
	case "core":
		return restoreExprs(snaps)
	case "pram":
		return restoreExprs(snaps, dyntc.WithWorkers(cfg.nproc))
	}
	return nil, fmt.Errorf("unknown rung %q", name)
}

// rungRun is one replay of a program on one rung.
type rungRun struct {
	name    string
	usPerOp float64
	lat     []int64           // per request, ns
	kindNS  [numOpKinds]int64 // time by the kind of the request's first op
	kindOps [numOpKinds]int64
}

// replay runs prog closed-loop on be. With a tracer it records one span
// per request under a span for the whole rung.
func replay(name string, be backend, prog []request, tr *tracer) rungRun {
	run := rungRun{name: name}
	var rung int32
	if tr != nil {
		rung = tr.rung(name)
	}
	ops := 0
	start := time.Now()
	for i := range prog {
		r := &prog[i]
		t0 := time.Now()
		be.apply(r)
		t1 := time.Now()
		k := r.ops[0].kind
		run.kindNS[k] += int64(t1.Sub(t0))
		run.lat = append(run.lat, int64(t1.Sub(t0)))
		run.kindOps[k] += int64(len(r.ops))
		ops += len(r.ops)
		if tr != nil {
			tr.add(rung, int32(i), t0, t1)
		}
	}
	end := time.Now()
	if tr != nil {
		tr.add(rung, -1, start, end)
	}
	run.usPerOp = float64(end.Sub(start)) / 1e3 / float64(ops)
	return run
}

// ladderMetrics turns rung timings into layer costs: each layer is its
// rung minus the rung beneath, so the layers sum to the top rung.
func ladderMetrics(res *result, runs []rungRun) {
	prev := 0.0
	for _, r := range runs {
		res.set(r.name+".us_per_op", r.usPerOp-prev)
		prev = r.usPerOp
	}
	res.note("ladder closes: layers sum to the %s rung at %.3f us/op", runs[len(runs)-1].name, prev)
}

func (c *exprCounters) report(res *result, ops int64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.set("core.records_per_wave", ratio(float64(c.Records), float64(c.Waves)))
	res.set("core.struct_records_per_wave", ratio(float64(c.StructRecords), float64(c.StructWaves)))
	res.set("core.resim_ratio", ratio(float64(c.Resims), float64(c.StructWaves)))
	res.set("core.bound_ratio", ratio(float64(c.StructRecords), c.RecordBound))
	res.set("rbsts.rebuild_leaves_per_op", ratio(float64(c.RebuildLeaves), float64(ops)))
	res.set("pram.steps_per_wave", ratio(float64(c.Steps), float64(c.Waves)))
	res.set("pram.work_per_wave", ratio(float64(c.Work), float64(c.Waves)))
	res.set("pram.max_procs", float64(c.MaxProcs))
	res.set("pram.round_bound_ratio", ratio(float64(c.StructSteps), c.RoundBound))
}

// ladderRun is one bottom-up pass over the in-process rungs.
type ladderRun struct {
	runs  []rungRun
	ctr   exprCounters    // of the highest Expr rung, over the program only
	sched [2]schedReading // the default pool before and after the pram rung
}

// replayRungs builds each named rung afresh over snaps, runs the warm-up
// requests, and replays prog with spans. The stand-alone PT of the rbsts
// rung has core's seed and sees core's leaf positions, so the two must
// rebuild exactly the same subtrees; a difference fails the run.
func replayRungs(names []string, snaps [][]byte, cfg config, warm, prog []request, tr *tracer) (*ladderRun, error) {
	l := &ladderRun{}
	rebuilt := int64(-1)
	for _, name := range names {
		runtime.GC()
		be, err := newRung(name, snaps, cfg)
		if err != nil {
			return nil, err
		}
		for i := range warm {
			be.apply(&warm[i])
		}
		// Counters cover the program, not the warm-up.
		eb, _ := be.(*exprBackend)
		rb, _ := be.(*rbstsBackend)
		if eb != nil {
			eb.count = true
		}
		if rb != nil {
			rb.rebuildLeaves = 0
		}
		if name == "pram" {
			l.sched[0] = readPool()
		}
		l.runs = append(l.runs, replay(name, be, prog, tr))
		if name == "pram" {
			l.sched[1] = readPool()
		}
		if eb != nil {
			l.ctr = eb.ctr
		}
		if rb != nil {
			rebuilt = rb.rebuildLeaves
		}
	}
	if rebuilt >= 0 && l.ctr.Waves > 0 && rebuilt != l.ctr.RebuildLeaves {
		return nil, fmt.Errorf("rbsts rung rebuilt %d leaves, core's PT %d", rebuilt, l.ctr.RebuildLeaves)
	}
	return l, nil
}

// schedReading is a scheduler pool's counters and how long the pool had
// existed when they were read: Stats().Utilization is cumulative from the
// pool's start, and an interval's utilization is recovered from two
// readings.
type schedReading struct {
	stats dyntc.SchedStats
	age   float64 // seconds
}

var poolStart time.Time

// initPool creates the process-wide pool (it is built on first use) at a
// known instant.
func initPool() {
	if poolStart.IsZero() {
		poolStart = time.Now()
		dyntc.DefaultSchedPool()
	}
}

func readPool() schedReading {
	return schedReading{dyntc.DefaultSchedPool().Stats(), time.Since(poolStart).Seconds()}
}

// reportSched sets the sched.* metrics for the interval between two readings.
func reportSched(res *result, waves int64, from, to schedReading) {
	if waves > 0 {
		w := float64(waves)
		res.set("sched.loops_per_wave", float64(to.stats.Loops-from.stats.Loops)/w)
		res.set("sched.tasks_per_wave", float64(to.stats.Tasks-from.stats.Tasks)/w)
		res.set("sched.steals_per_wave", float64(to.stats.Steals-from.stats.Steals)/w)
	}
	if to.age > from.age {
		res.set("sched.utilization", (to.stats.Utilization*to.age-from.stats.Utilization*from.age)/(to.age-from.age))
	}
}

// programOf fingerprints a program and counts its ops.
func programOf(prog []request) (hash uint64, ops int64) {
	h := newStreamHash()
	for i := range prog {
		h.add(&prog[i])
		ops += int64(len(prog[i].ops))
	}
	return h.sum(), ops
}

// finishTraced fills in what every traced run ends with.
func finishTraced(cfg config, res *result, tr *tracer, prog []request, ctr exprCounters) error {
	hash, ops := programOf(prog)
	res.note("program: %d requests, %d ops, stream hash %016x", len(prog), ops, hash)
	res.exact = map[string]string{
		"stream_hash": fmt.Sprintf("%016x", hash),
		"counters":    fmt.Sprintf("%+v", ctr),
	}
	if err := tr.write(cfg.tracePath()); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
