// Package sched is the process-wide runtime scheduler: one work-stealing
// goroutine pool that every CPU-hungry layer of the system shares.
//
// The paper's PRAM model assumes a single fixed processor set executing
// every contraction wave. The codebase had drifted into disjoint pools —
// each tree's PRAM worker pool and the cross-tree query scatter pool — so
// a large forest on a small box oversubscribed wildly while a single busy
// tree underused it. This package restores the paper's discipline the way
// modern batch-dynamic tree systems do (Acar et al. 2020's
// processor-oblivious change propagation, Ikram et al. 2025's batch-query
// scheduling): a single shared pool of workers, with per-worker deques and
// work stealing, that PRAM steps, cross-tree queries and follower replay
// all submit to.
//
// Two submission shapes cover every consumer:
//
//   - ParallelFor: a data-parallel round over [0, n), distributed by
//     atomic chunk claiming (the steal path is a chunk, not an item, so
//     dispatch stays amortized). The caller participates, so a round
//     always makes progress even on a saturated pool, and nested rounds
//     (a pool task running a PRAM step) cannot deadlock. Panics in bodies
//     abort the round and re-panic on the caller; the pool survives.
//   - TrySubmitBlocking: free-standing async tasks that may block (a query
//     gather waiting on engine futures, a follower catch-up doing I/O).
//     They are capped at workers-1 so compute tasks always have a worker
//     left and the pool cannot deadlock on its own futures; when no slot
//     is free the caller runs the task inline.
//
// A Pool is safe for concurrent use. Close is for owned pools in tests
// and benchmarks; the process-wide Default() pool is never closed.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dyntc/internal/obs"
)

// task is one unit of queued work: either a free-standing func or a
// helper for a chunk-claimed ParallelFor round. Tasks are stored by value
// in the deques, so queuing allocates nothing in steady state.
type task struct {
	fn  func()
	job *loopJob
}

// worker is one pool goroutine and its deque. The owner pops from the
// tail (LIFO, cache-warm); thieves steal from the head (FIFO, oldest
// first). A small mutex per deque keeps the implementation obviously
// correct; tasks are chunk-sized, so the lock is far off the hot path.
type worker struct {
	p    *Pool
	id   int
	mu   sync.Mutex
	dq   []task
	head int
}

// Pool is a work-stealing scheduler over a fixed set of worker
// goroutines.
type Pool struct {
	workers []*worker

	// Parking: idle workers wait on cond; pushers signal only when the
	// atomic idle gauge says someone is parked, so a loaded pool never
	// touches the park lock.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	idle     atomic.Int32
	stopped  atomic.Bool
	wg       sync.WaitGroup

	pushSeq  atomic.Uint64 // round-robin push target
	stealSeq atomic.Uint64 // rotates steal scan starts

	// blocking caps TrySubmitBlocking tasks at blockCap so at least one
	// worker is always available for compute tasks.
	blocking atomic.Int32
	blockCap int32

	// jobFree recycles ParallelFor round descriptors; pendingHelp counts
	// queued-but-unstarted loop helpers, the backlog signal that throttles
	// further helper enqueues (see loop.go).
	jobMu       sync.Mutex
	jobFree     []*loopJob
	pendingHelp atomic.Int64

	start time.Time

	// taskHist, when set by Observe, receives one latency sample per pool
	// task. One atomic pointer load per task when unset.
	taskHist atomic.Pointer[obs.Histogram]

	// spanTap, when set by SetSpans, samples pool tasks into a span log
	// (one sched.task span per sampled task). One atomic pointer load per
	// task when unset; spanSeq counts tasks for the sampling gate.
	spanTap atomic.Pointer[spanTap]
	spanSeq atomic.Uint64

	tasks      atomic.Uint64
	steals     atomic.Uint64
	loops      atomic.Uint64
	taskPanics atomic.Uint64
	busyNS     atomic.Int64

	// CheckCollapse's interval state: the previous sample of the busy
	// clock and the collapse latch (one event per collapse, not one per
	// tick). Guarded by collapseMu; touched only by the monitor caller.
	collapseMu  sync.Mutex
	lastBusyNS  int64
	lastCheckAt time.Time
	lastUtil    float64
	collapsed   bool

	// blockedNS is the wall-clock spent inside blocking-lane tasks; it is
	// subtracted from busyNS for the utilization gauge so a worker parked
	// on I/O or a future does not read as CPU use.
	blockedNS atomic.Int64
}

// NewPool starts a pool of the given size (GOMAXPROCS when <= 0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{start: time.Now()}
	p.parkCond = sync.NewCond(&p.parkMu)
	p.blockCap = int32(workers - 1)
	p.workers = make([]*worker, workers)
	for i := range p.workers {
		p.workers[i] = &worker{p: p, id: i}
	}
	p.wg.Add(workers)
	for _, w := range p.workers {
		go w.run()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the lazily-created process-wide pool (GOMAXPROCS
// workers). It is shared by every machine, planner and follower that is
// not given an explicit pool, and is never closed.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// Close stops the pool: queued tasks drain, workers exit, and Close
// returns once they have. Submissions racing Close are not supported —
// quiesce submitters first. After Close, TrySubmitBlocking refuses and
// ParallelFor degrades to a sequential loop.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.parkMu.Lock()
	p.stopped.Store(true)
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
	p.wg.Wait()
}

// TrySubmitBlocking enqueues a task that may block (on futures, locks or
// I/O). At most workers-1 blocking tasks run at once, so compute tasks
// always have a worker left and pool tasks can never deadlock waiting on
// each other. It reports false — and runs nothing — when no blocking slot
// is free (or the pool is closed or single-worker); the caller should run
// the task inline on its own goroutine.
func (p *Pool) TrySubmitBlocking(fn func()) bool {
	if p == nil || p.stopped.Load() || p.blockCap <= 0 {
		return false
	}
	for {
		cur := p.blocking.Load()
		if cur >= p.blockCap {
			return false
		}
		if p.blocking.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	p.push(task{fn: func() {
		begin := time.Now()
		defer func() {
			p.blockedNS.Add(int64(time.Since(begin)))
			p.blocking.Add(-1)
		}()
		fn()
	}})
	return true
}

// runTask executes one free-standing task, containing panics (a
// misbehaving task must not take down a shared worker).
func (p *Pool) runTask(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.taskPanics.Add(1)
		}
	}()
	p.tasks.Add(1)
	fn()
}

// push appends t to the next deque round-robin and wakes a parked worker
// if there is one. The idle check is an atomic load, so pushing into a
// busy pool never touches the park lock.
func (p *Pool) push(t task) {
	w := p.workers[int(p.pushSeq.Add(1))%len(p.workers)]
	w.push(t)
	if p.idle.Load() > 0 {
		p.parkMu.Lock()
		p.parkCond.Signal()
		p.parkMu.Unlock()
	}
}

func (w *worker) push(t task) {
	w.mu.Lock()
	// Compact a deque whose consumed head region dominates, so the
	// steady-state push-at-tail / steal-at-head pattern cannot grow the
	// backing array without bound.
	if w.head > 32 && w.head*2 >= len(w.dq) {
		n := copy(w.dq, w.dq[w.head:])
		for i := n; i < len(w.dq); i++ {
			w.dq[i] = task{}
		}
		w.dq = w.dq[:n]
		w.head = 0
	}
	w.dq = append(w.dq, t)
	w.mu.Unlock()
}

// pop takes the owner's newest task (LIFO tail).
func (w *worker) pop() (task, bool) {
	w.mu.Lock()
	if w.head == len(w.dq) {
		w.dq, w.head = w.dq[:0], 0
		w.mu.Unlock()
		return task{}, false
	}
	t := w.dq[len(w.dq)-1]
	w.dq[len(w.dq)-1] = task{}
	w.dq = w.dq[:len(w.dq)-1]
	if w.head == len(w.dq) {
		w.dq, w.head = w.dq[:0], 0
	}
	w.mu.Unlock()
	return t, true
}

// stealHead takes the victim's oldest task (FIFO head).
func (w *worker) stealHead() (task, bool) {
	w.mu.Lock()
	if w.head == len(w.dq) {
		w.mu.Unlock()
		return task{}, false
	}
	t := w.dq[w.head]
	w.dq[w.head] = task{}
	w.head++
	if w.head == len(w.dq) {
		w.dq, w.head = w.dq[:0], 0
	}
	w.mu.Unlock()
	return t, true
}

// steal scans the other deques from a rotating start and takes one task.
func (p *Pool) steal(self int) (task, bool) {
	n := len(p.workers)
	off := int(p.stealSeq.Add(1))
	for i := 0; i < n; i++ {
		v := p.workers[(off+i)%n]
		if v.id == self {
			continue
		}
		if t, ok := v.stealHead(); ok {
			return t, true
		}
	}
	return task{}, false
}

// Collapse detection thresholds: an interval utilization falling from
// at or above collapseHigh to below collapseLow while work is still
// queued is the starvation signature CheckCollapse journals.
const (
	collapseLow  = 0.05
	collapseHigh = 0.25
)

// CheckCollapse samples the pool's utilization over the interval since
// the previous call (not since pool start, which the Stats gauge already
// covers) and journals a sched.collapse event into j when utilization
// falls off a cliff while tasks are still queued — workers idle or
// parked on blocking work with a backlog behind them. The latch re-arms
// once utilization recovers past collapseHigh, so a sustained collapse
// journals once, not once per tick. Designed to be driven by a periodic
// monitor; returns the interval utilization for that monitor's own use.
func (p *Pool) CheckCollapse(j *obs.Journal) float64 {
	now := time.Now()
	busy := p.busyNS.Load() - p.blockedNS.Load()
	p.collapseMu.Lock()
	defer p.collapseMu.Unlock()
	if p.lastCheckAt.IsZero() {
		p.lastCheckAt, p.lastBusyNS = now, busy
		return 0
	}
	elapsed := now.Sub(p.lastCheckAt)
	delta := busy - p.lastBusyNS
	p.lastCheckAt, p.lastBusyNS = now, busy
	if elapsed <= 0 {
		return p.lastUtil
	}
	util := float64(delta) / (float64(elapsed) * float64(len(p.workers)))
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	prev := p.lastUtil
	p.lastUtil = util
	switch {
	case !p.collapsed && prev >= collapseHigh && util < collapseLow && p.anyQueued():
		p.collapsed = true
		j.Emit(obs.EvSchedCollapse,
			"worker utilization collapsed with tasks still queued",
			map[string]any{
				"utilization": util,
				"previous":    prev,
				"workers":     len(p.workers),
				"blocking":    p.blocking.Load(),
			})
	case p.collapsed && util >= collapseHigh:
		p.collapsed = false
	}
	return util
}

// anyQueued reports whether any deque holds work (park-path only).
func (p *Pool) anyQueued() bool {
	for _, w := range p.workers {
		w.mu.Lock()
		n := len(w.dq) - w.head
		w.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

func (w *worker) run() {
	defer w.p.wg.Done()
	p := w.p
	for {
		t, ok := w.next()
		if !ok {
			return
		}
		begin := time.Now()
		if t.job != nil {
			p.pendingHelp.Add(-1)
			t.job.help()
			t.job.unref()
		} else {
			p.runTask(t.fn)
		}
		d := int64(time.Since(begin))
		p.busyNS.Add(d)
		if h := p.taskHist.Load(); h != nil {
			h.Observe(d)
		}
		if st := p.spanTap.Load(); st != nil {
			if p.spanSeq.Add(1)%st.sample == 0 {
				st.log.Add(obs.Span{
					Trace: obs.NewTraceID(),
					Span:  obs.NewSpanID(),
					Name:  "sched.task",
					Start: begin.UnixNano(),
					Dur:   d,
				})
			}
		}
	}
}

// next finds the worker's next task: own deque, then stealing, then
// parking. It returns false only when the pool is stopped and every
// deque has drained.
func (w *worker) next() (task, bool) {
	p := w.p
	for {
		if t, ok := w.pop(); ok {
			return t, true
		}
		if t, ok := p.steal(w.id); ok {
			p.steals.Add(1)
			return t, true
		}
		p.parkMu.Lock()
		if p.stopped.Load() {
			if p.anyQueued() {
				p.parkMu.Unlock()
				continue
			}
			p.parkMu.Unlock()
			return task{}, false
		}
		// Register idle before the final scan: a pusher either sees the
		// idle gauge non-zero (and signals under the park lock, which we
		// hold until Wait releases it) or pushed before the scan below
		// (and the scan finds the task). Either way no wakeup is lost.
		p.idle.Add(1)
		if p.anyQueued() {
			p.idle.Add(-1)
			p.parkMu.Unlock()
			continue
		}
		p.parkCond.Wait()
		p.idle.Add(-1)
		p.parkMu.Unlock()
	}
}

// Observe registers the pool's metric families on reg: utilization,
// queue depth and idle workers as gauges; tasks, steals, loops and
// contained panics as counters; and a task-latency histogram. Safe to
// call once at wiring time; re-registering on the same registry replaces
// the gauge closures.
func (p *Pool) Observe(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.GaugeFunc("dyntc_sched_workers", "pool worker goroutines",
		func() float64 { return float64(len(p.workers)) })
	reg.GaugeFunc("dyntc_sched_utilization", "fraction of worker time spent computing since pool start (blocking-lane wall clock excluded)",
		func() float64 { return p.Stats().Utilization })
	reg.GaugeFunc("dyntc_sched_queue_depth", "tasks currently queued across worker deques",
		func() float64 { return float64(p.Stats().QueueDepth) })
	reg.GaugeFunc("dyntc_sched_idle_workers", "workers parked right now",
		func() float64 { return float64(p.idle.Load()) })
	reg.GaugeFunc("dyntc_sched_blocking", "blocking-lane tasks in flight",
		func() float64 { return float64(p.blocking.Load()) })
	reg.CounterFunc("dyntc_sched_tasks_total", "free-standing tasks executed",
		func() float64 { return float64(p.tasks.Load()) })
	reg.CounterFunc("dyntc_sched_steals_total", "tasks taken from another worker's deque",
		func() float64 { return float64(p.steals.Load()) })
	reg.CounterFunc("dyntc_sched_loops_total", "ParallelFor rounds dispatched to the pool",
		func() float64 { return float64(p.loops.Load()) })
	reg.CounterFunc("dyntc_sched_task_panics_total", "pool tasks that panicked (contained)",
		func() float64 { return float64(p.taskPanics.Load()) })
	p.taskHist.Store(reg.Seconds("dyntc_sched_task_seconds", "pool task latency"))
}

// spanTap is the installed task-span configuration (see SetSpans).
type spanTap struct {
	log    *obs.SpanLog
	sample uint64
}

// SetSpans samples pool tasks into log: every sample-th task (1 records
// all) emits a standalone sched.task span carrying the task's start and
// duration. Pool tasks belong to no particular request trace — the
// shared workers interleave every tree's steps — so task spans get fresh
// trace IDs and serve as a sampled task-latency stream next to the
// dyntc_sched_task_seconds histogram. A nil log removes the tap.
func (p *Pool) SetSpans(log *obs.SpanLog, sample uint64) {
	if p == nil {
		return
	}
	if log == nil {
		p.spanTap.Store(nil)
		return
	}
	if sample == 0 {
		sample = 1
	}
	p.spanTap.Store(&spanTap{log: log, sample: sample})
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	Workers     int     `json:"workers"`
	Tasks       uint64  `json:"tasks"`        // free-standing tasks executed
	Steals      uint64  `json:"steals"`       // tasks taken from another worker's deque
	Loops       uint64  `json:"loops"`        // ParallelFor rounds dispatched
	TaskPanics  uint64  `json:"task_panics"`  // tasks that panicked (contained)
	QueueDepth  int     `json:"queue_depth"`  // tasks currently queued across deques
	IdleWorkers int     `json:"idle_workers"` // workers parked right now
	Blocking    int     `json:"blocking"`     // blocking tasks in flight (TrySubmitBlocking)
	Utilization float64 `json:"utilization"`  // fraction of worker-time spent computing since start (blocking-lane wall-clock excluded)
}

// Stats returns a snapshot.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	depth := 0
	for _, w := range p.workers {
		w.mu.Lock()
		depth += len(w.dq) - w.head
		w.mu.Unlock()
	}
	s := Stats{
		Workers:     len(p.workers),
		Tasks:       p.tasks.Load(),
		Steals:      p.steals.Load(),
		Loops:       p.loops.Load(),
		TaskPanics:  p.taskPanics.Load(),
		QueueDepth:  depth,
		IdleWorkers: int(p.idle.Load()),
		Blocking:    int(p.blocking.Load()),
	}
	if elapsed := time.Since(p.start); elapsed > 0 && len(p.workers) > 0 {
		busy := p.busyNS.Load() - p.blockedNS.Load()
		if busy < 0 {
			busy = 0
		}
		s.Utilization = float64(busy) / (float64(elapsed) * float64(len(p.workers)))
		if s.Utilization > 1 {
			s.Utilization = 1
		}
	}
	return s
}
