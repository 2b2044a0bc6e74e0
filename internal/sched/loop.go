package sched

import (
	"sync"
	"sync/atomic"
)

// loopJob is one ParallelFor round. The iteration space [0, n) is claimed
// in chunks through the atomic next cursor by every participant — the
// caller plus up to width-1 pool workers — so uneven bodies load-balance
// and a busy pool degrades gracefully (unstarted helpers find the cursor
// exhausted and return immediately).
//
// Completion is tracked by iteration count, not participant count: each
// claimed chunk adds its span to done exactly once, and the spans
// partition [0, n), so the participant whose add reaches n fires the done
// signal. The caller therefore never waits for helpers that are still
// queued behind other work — only for chunks actually in flight.
//
// Jobs are recycled through the pool's freelist: refs counts the caller
// plus every enqueued helper, and the last dereference returns the job,
// so a steady-state round allocates nothing. (A sync.Pool is the obvious
// alternative but misses here: the last dereference usually lands on a
// worker goroutine, so the job parks in that P's private slot while the
// next round's caller allocates a fresh one.)
type loopJob struct {
	pool  *Pool
	n     int
	chunk int64
	body  func(int)

	next    atomic.Int64 // next unclaimed index
	done    atomic.Int64 // iterations accounted for (executed or drained)
	aborted atomic.Bool  // a body panicked: stop claiming chunks

	panicMu  sync.Mutex
	panicked bool
	panicVal any

	donech chan struct{} // buffered(1): exactly one send per round
	refs   atomic.Int32
}

// jobFreeCap bounds the freelist; rounds in flight rarely exceed the
// worker count, so a small cap keeps memory flat without ever missing in
// steady state.
const jobFreeCap = 64

func (p *Pool) getJob() *loopJob {
	p.jobMu.Lock()
	if n := len(p.jobFree); n > 0 {
		j := p.jobFree[n-1]
		p.jobFree[n-1] = nil
		p.jobFree = p.jobFree[:n-1]
		p.jobMu.Unlock()
		return j
	}
	p.jobMu.Unlock()
	return &loopJob{pool: p, donech: make(chan struct{}, 1)}
}

func (p *Pool) putJob(j *loopJob) {
	p.jobMu.Lock()
	if len(p.jobFree) < jobFreeCap {
		p.jobFree = append(p.jobFree, j)
	}
	p.jobMu.Unlock()
}

// ParallelFor executes body(i) for every i in [0, n) as one parallel
// round: work is claimed in chunks of the given size by the caller and by
// up to width-1 pool workers. The caller participates and blocks until
// every iteration has executed. A panic in any body aborts the round
// (remaining chunks are skipped) and re-panics on the caller; the pool
// stays usable. On a nil or closed pool, or when width <= 1 or the round
// fits in one chunk, the loop runs inline.
func (p *Pool) ParallelFor(n, chunk, width int, body func(int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	if p == nil || width <= 1 || n <= chunk || p.stopped.Load() {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	helpers := (n+chunk-1)/chunk - 1 // never enqueue more helpers than chunks
	if helpers > width-1 {
		helpers = width - 1
	}
	if w := len(p.workers); helpers > w {
		helpers = w
	}
	// Don't enqueue helpers the pool cannot absorb: once more helper
	// tasks are queued than workers could be running, further ones add no
	// parallelism — they would only pile up as stale tasks (and garbage)
	// while the caller does the work itself. This keeps a caller that
	// outpaces the pool self-throttled and the round allocation-free.
	if budget := 2*int64(len(p.workers)) - p.pendingHelp.Load(); budget < int64(helpers) {
		if budget < 0 {
			budget = 0
		}
		helpers = int(budget)
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}

	j := p.getJob()
	j.n, j.chunk, j.body = n, int64(chunk), body
	j.next.Store(0)
	j.done.Store(0)
	j.aborted.Store(false)
	j.refs.Store(int32(helpers) + 1)
	p.loops.Add(1)
	p.pendingHelp.Add(int64(helpers))
	for i := 0; i < helpers; i++ {
		p.push(task{job: j})
	}

	j.help()
	<-j.donech

	var pv any
	pk := false
	j.panicMu.Lock()
	if j.panicked {
		pk, pv = true, j.panicVal
		j.panicked, j.panicVal = false, nil
	}
	j.panicMu.Unlock()
	j.unref()
	if pk {
		panic(pv)
	}
}

// help claims and executes chunks until the cursor is exhausted or the
// round aborts. Both the caller and pool workers run it.
func (j *loopJob) help() {
	n := int64(j.n)
	chunk := j.chunk
	body := j.body
	for !j.aborted.Load() {
		lo := j.next.Add(chunk) - chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if j.runChunk(body, int(lo), int(hi)) {
			j.complete(hi - lo)
			continue
		}
		// This participant panicked: account for its own chunk, then
		// drain the unclaimed tail so the done count still reaches n.
		// Chunks claimed by other participants are accounted for by them
		// (executed or cut short, either way their full span is added),
		// so every iteration is counted exactly once.
		j.complete(hi - lo)
		v := j.next.Swap(n + (1 << 40))
		if v < n {
			j.complete(n - v)
		}
		return
	}
}

// runChunk executes one chunk, containing panics: the first panic value
// is recorded for the caller and the round is marked aborted.
func (j *loopJob) runChunk(body func(int), lo, hi int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			j.aborted.Store(true)
			j.panicMu.Lock()
			if !j.panicked {
				j.panicked, j.panicVal = true, r
			}
			j.panicMu.Unlock()
			ok = false
		}
	}()
	for i := lo; i < hi; i++ {
		body(i)
	}
	return true
}

// complete accounts span iterations; the add that reaches n fires the
// round's single done token.
func (j *loopJob) complete(span int64) {
	if j.done.Add(span) == int64(j.n) {
		j.donech <- struct{}{}
	}
}

// unref drops one reference; the last one recycles the job. Helpers that
// run after the round completed still hold a reference, so a job is never
// reused while a stale helper could touch it.
func (j *loopJob) unref() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		j.pool.putJob(j)
	}
}
