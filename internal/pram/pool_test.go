package pram

// Tests for pool-backed step execution: steps must not spawn goroutines
// or allocate, metering must be bit-for-bit identical to the sequential
// machine, and a panicking body must leave the Machine (and the shared
// scheduler pool) reusable. Run with -race: the chunk-claiming steal path
// is exactly the kind of code the race detector exists for.
//
// Machines here run on dedicated sched pools (NewOnPool) so goroutine
// accounting is exact; the leak checks use the schedtest helper shared
// with the scheduler's own tests instead of racing asynchronous worker
// exits against a tolerance.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dyntc/internal/sched"
	"dyntc/internal/sched/schedtest"
)

// parallelTestMachine returns a machine on its own pool whose parallel
// path engages on small steps. Close the returned pool when done.
func parallelTestMachine(workers int) (*Machine, *sched.Pool) {
	p := sched.NewPool(workers)
	m := NewOnPool(p, workers)
	m.SetGrain(8)
	return m, p
}

func TestPoolNoGoroutineSpawnPerStep(t *testing.T) {
	m, p := parallelTestMachine(4)
	defer p.Close()
	var sink atomic.Int64
	body := func(i int) { sink.Add(int64(i)) }

	m.Step(1000, body) // warm-up
	before := schedtest.StableGoroutines()
	for k := 0; k < 200; k++ {
		m.Step(1000, body)
	}
	schedtest.WaitForGoroutines(t, before)

	allocs := testing.AllocsPerRun(100, func() { m.Step(1000, body) })
	if allocs > 0.5 {
		t.Fatalf("parallel Step allocates %.2f objects/op, want ~0", allocs)
	}
}

func TestPoolExecutesEveryIndexOnceSmallGrain(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		m, p := parallelTestMachine(workers)
		for _, n := range []int{8, 9, 17, 100, 1001, 4096} {
			counts := make([]int32, n)
			m.Step(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

func TestPoolMetricsIdenticalToSequential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seq := Sequential()
		par, p := parallelTestMachine(4)
		x := seed
		ns := make([]int, 50)
		for k := range ns {
			x = x*6364136223846793005 + 1442695040888963407
			ns[k] = int(x>>33)%5000 + 1
		}
		var a, b atomic.Int64
		for _, n := range ns {
			seq.Step(n, func(i int) { a.Add(1) })
		}
		for _, n := range ns {
			par.Step(n, func(i int) { b.Add(1) })
		}
		if seq.Metrics() != par.Metrics() {
			t.Fatalf("seed %d: sequential %+v != pool %+v", seed, seq.Metrics(), par.Metrics())
		}
		if a.Load() != b.Load() {
			t.Fatalf("seed %d: executed %d vs %d bodies", seed, a.Load(), b.Load())
		}
		p.Close()
	}
}

func TestPoolPanicRecoveryAndReuse(t *testing.T) {
	m, p := parallelTestMachine(4)
	defer p.Close()
	m.Step(1000, func(i int) {}) // warm up
	goroutines := schedtest.StableGoroutines()

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic in body did not propagate")
			}
			if s, ok := r.(string); !ok || s != "boom" {
				t.Fatalf("panic value = %v, want \"boom\"", r)
			}
		}()
		m.Step(1000, func(i int) {
			if i == 500 {
				panic("boom")
			}
		})
	}()

	// The step was still charged (the round dispatched) and the machine
	// remains fully usable on the same pool.
	if got := m.Metrics(); got.Steps != 2 || got.MaxProcs != 1000 {
		t.Fatalf("metrics after panic = %+v", got)
	}
	var ran atomic.Int64
	m.Step(2000, func(i int) { ran.Add(1) })
	if ran.Load() != 2000 {
		t.Fatalf("step after panic ran %d bodies, want 2000", ran.Load())
	}
	schedtest.WaitForGoroutines(t, goroutines)
}

func TestMachineReuseAfterReset(t *testing.T) {
	m, p := parallelTestMachine(4)
	defer p.Close()
	var sum atomic.Int64
	m.Step(500, func(i int) { sum.Add(int64(i)) })
	first := m.Metrics()
	m.Reset()
	if m.Metrics() != (Metrics{}) {
		t.Fatal("Reset did not clear metrics")
	}
	sum.Store(0)
	m.Step(500, func(i int) { sum.Add(int64(i)) })
	if m.Metrics() != first {
		t.Fatalf("reused machine metered %+v, first run %+v", m.Metrics(), first)
	}
	if want := int64(500*499) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestSetWorkersReconfigures(t *testing.T) {
	m := New(2)
	m.SetGrain(8)
	m.Step(100, func(i int) {})
	m.SetWorkers(4)
	if m.Workers() != 4 {
		t.Fatalf("Workers() = %d after SetWorkers(4)", m.Workers())
	}
	var n atomic.Int64
	m.Step(100, func(i int) { n.Add(1) })
	if n.Load() != 100 {
		t.Fatalf("step after SetWorkers ran %d bodies", n.Load())
	}
	// Upgrading a Sequential machine must unlock the parallel threshold.
	s := Sequential()
	s.SetWorkers(4)
	s.Step(100, func(i int) {})
	if s.Workers() != 4 {
		t.Fatalf("sequential upgrade: Workers() = %d", s.Workers())
	}
}

// TestSharedPoolAcrossMachines is the architectural point of the
// refactor: many machines share one pool, so total goroutines track the
// pool size, not the machine count.
func TestSharedPoolAcrossMachines(t *testing.T) {
	base := schedtest.StableGoroutines()
	p := sched.NewPool(4)
	machines := make([]*Machine, 64)
	for i := range machines {
		machines[i] = NewOnPool(p, 4)
		machines[i].SetGrain(8)
	}
	var total atomic.Int64
	for round := 0; round < 5; round++ {
		for _, m := range machines {
			m.Step(500, func(i int) { total.Add(1) })
		}
	}
	if total.Load() != 64*5*500 {
		t.Fatalf("ran %d bodies, want %d", total.Load(), 64*5*500)
	}
	if now := runtime.NumGoroutine(); now > base+6 {
		t.Fatalf("64 machines grew goroutines %d -> %d; pool should cap at 4 workers", base, now)
	}
	p.Close()
	schedtest.WaitForGoroutines(t, base)
}

// BenchmarkStep sweeps the worker hint: on a multi-core host wall-clock
// drops with workers while the metered cost stays constant; on any host it
// demonstrates the dispatch path is allocation-free.
func BenchmarkStep(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	const n = 1 << 15
	data := make([]int64, n)
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := New(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Step(n, func(j int) { data[j]++ })
			}
		})
	}
}
