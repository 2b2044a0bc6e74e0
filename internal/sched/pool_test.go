package sched

// Tests for the shared work-stealing pool. Run with -race: chunk
// claiming, deque stealing and the parking protocol are exactly the kind
// of code the race detector exists for.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyntc/internal/sched/schedtest"
)

// submit enqueues a free-standing task straight onto the deques — what
// TrySubmitBlocking does minus its blocking cap — so the tests can load
// the pool with more tasks than it has workers.
func (p *Pool) submit(fn func()) { p.push(task{fn: fn}) }

func TestParallelForExecutesEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{1, 7, 8, 9, 100, 1001, 4096} {
			for _, chunk := range []int{1, 3, 8, 64, 5000} {
				counts := make([]int32, n)
				p.ParallelFor(n, chunk, workers+1, func(i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("workers=%d n=%d chunk=%d: index %d executed %d times", workers, n, chunk, i, c)
					}
				}
			}
		}
		p.Close()
	}
}

func TestParallelForConcurrentRounds(t *testing.T) {
	// Many goroutines running rounds on one pool concurrently — the shape
	// of a forest of engines sharing the scheduler.
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			for r := 0; r < 50; r++ {
				sum.Store(0)
				p.ParallelFor(500, 16, 4, func(i int) { sum.Add(int64(i)) })
				if want := int64(500*499) / 2; sum.Load() != want {
					t.Errorf("round sum = %d, want %d", sum.Load(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestParallelForNested(t *testing.T) {
	// A pool task running its own ParallelFor (an engine wave phase
	// running a PRAM step) must make progress even when every worker is
	// busy: the caller participates in its own round.
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			p.ParallelFor(1000, 32, 3, func(i int) { total.Add(1) })
		})
	}
	wg.Wait()
	if total.Load() != 6000 {
		t.Fatalf("nested rounds executed %d bodies, want 6000", total.Load())
	}
}

func TestParallelForPanicAbortsAndPoolSurvives(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic in body did not propagate to the caller")
			}
			if s, ok := r.(string); !ok || s != "boom" {
				t.Fatalf("panic value = %v, want \"boom\"", r)
			}
		}()
		p.ParallelFor(1000, 8, 5, func(i int) {
			if i == 500 {
				panic("boom")
			}
		})
	}()
	// The pool and the job pool stay usable.
	var ran atomic.Int64
	p.ParallelFor(2000, 8, 5, func(i int) { ran.Add(1) })
	if ran.Load() != 2000 {
		t.Fatalf("round after panic ran %d bodies, want 2000", ran.Load())
	}
}

func TestParallelForZeroAllocSteadyState(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	body := func(i int) { sink.Add(int64(i)) }
	p.ParallelFor(4096, 64, 4, body) // warm-up: job, deques, parking
	allocs := testing.AllocsPerRun(100, func() { p.ParallelFor(4096, 64, 4, body) })
	if allocs > 0.5 {
		t.Fatalf("steady-state ParallelFor allocates %.2f objects/op, want ~0", allocs)
	}
}

func TestSubmitAndStealDistribution(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < 2000; i++ {
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			ran.Add(1)
		})
	}
	wg.Wait()
	if ran.Load() != 2000 {
		t.Fatalf("ran %d tasks, want 2000", ran.Load())
	}
	st := p.Stats()
	if st.Tasks < 2000 {
		t.Fatalf("stats.Tasks = %d, want >= 2000", st.Tasks)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

func TestSubmitPanicContained(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(func() {
		defer wg.Done()
		panic("contained")
	})
	wg.Wait()
	var ok atomic.Bool
	wg.Add(1)
	p.submit(func() {
		defer wg.Done()
		ok.Store(true)
	})
	wg.Wait()
	if !ok.Load() {
		t.Fatal("pool dead after a task panic")
	}
	if p.Stats().TaskPanics == 0 {
		t.Fatal("task panic not counted")
	}
}

func TestTrySubmitBlockingCap(t *testing.T) {
	p := NewPool(4) // blockCap = 3
	defer p.Close()
	release := make(chan struct{})
	var started sync.WaitGroup
	accepted := 0
	for i := 0; i < 3; i++ {
		started.Add(1)
		if !p.TrySubmitBlocking(func() { started.Done(); <-release }) {
			t.Fatalf("blocking submit %d rejected below cap", i)
		}
		accepted++
	}
	started.Wait()
	if p.TrySubmitBlocking(func() {}) {
		t.Fatal("blocking submit accepted above cap")
	}
	// A compute task still runs while every blocking slot is held.
	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	p.submit(func() { defer wg.Done(); close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("compute task starved by blocking tasks")
	}
	close(release)
	wg.Wait()
	// Slots free up again.
	deadline := time.Now().Add(2 * time.Second)
	for !p.TrySubmitBlocking(func() {}) {
		if time.Now().After(deadline) {
			t.Fatal("blocking slots never freed")
		}
		runtime.Gosched()
	}
	_ = accepted
}

func TestSingleWorkerPoolRejectsBlocking(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if p.TrySubmitBlocking(func() {}) {
		t.Fatal("single-worker pool accepted a blocking task (deadlock bait)")
	}
}

func TestCloseDrainsAndReclaimsWorkers(t *testing.T) {
	base := schedtest.StableGoroutines()
	p := NewPool(4)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.submit(func() { defer wg.Done(); ran.Add(1) })
	}
	wg.Wait()
	p.Close()
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks before close, want 100", ran.Load())
	}
	schedtest.WaitForGoroutines(t, base)
	// A closed pool degrades to inline execution instead of dropping work.
	var n atomic.Int64
	p.ParallelFor(100, 8, 4, func(i int) { n.Add(1) })
	if n.Load() != 100 {
		t.Fatalf("ParallelFor on closed pool ran %d bodies", n.Load())
	}
}

func TestStatsStealsUnderImbalance(t *testing.T) {
	// Pushes round-robin across deques; a worker that drains its own deque
	// must steal the rest. Submit bursts from one goroutine and verify the
	// steal counter moves under concurrency.
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 5000; i++ {
		wg.Add(1)
		p.submit(func() { defer wg.Done() })
	}
	wg.Wait()
	if p.Stats().Steals == 0 {
		t.Log("no steals observed (legal on a fast host, but unusual); not failing")
	}
}

func BenchmarkParallelFor(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	const n = 1 << 15
	data := make([]int64, n)
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ParallelFor(n, 512, w+1, func(j int) { data[j]++ })
			}
		})
	}
}
