package dyntc

// Worker-pool benchmarks: the core batch entry points and the engine flush
// path swept over PRAM worker counts. On a multi-core host wall-clock
// drops as workers grow while the metered PRAM cost stays identical; on
// any host BenchmarkEngineOps demonstrates the executor's allocation
// behaviour (run with -benchmem to see allocs/op).

import (
	"fmt"
	"runtime"
	"testing"
)

// workerSweep is the worker-count dimension of the paper-cost benchmarks:
// {1, 2, 4} plus GOMAXPROCS when it differs.
func workerSweep() []int {
	ws := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		ws = append(ws, g)
	}
	return ws
}

// benchExpr builds an expression with n leaves fanned out under OpAdd.
func benchExpr(n, workers int) (*Expr, []*Node) {
	e := NewExpr(benchRing, 1, WithSeed(42), WithWorkers(workers), withGrain(256))
	leaves := []*Node{e.Tree().Root}
	for len(leaves) < n {
		batch := make([]GrowOp, 0, len(leaves))
		for _, l := range leaves {
			if len(leaves)+len(batch) >= n {
				break
			}
			batch = append(batch, GrowOp{Leaf: l, Op: OpAdd(benchRing), LeftVal: 1, RightVal: 1})
		}
		pairs := e.GrowBatch(batch)
		next := make([]*Node, 0, len(leaves)+len(batch))
		for _, p := range pairs {
			next = append(next, p[0], p[1])
		}
		next = append(next, leaves[len(batch):]...)
		leaves = next
	}
	return e, leaves
}

// BenchmarkSetLeavesWorkers measures one batched leaf-relabel heal (the
// paper's batch U of label modifications) at each pool size.
func BenchmarkSetLeavesWorkers(b *testing.B) {
	const n, batch = 1 << 12, 256
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e, leaves := benchExpr(n, w)
			ls := make([]*Node, batch)
			vs := make([]int64, batch)
			stride := len(leaves) / batch
			for i := 0; i < batch; i++ {
				ls[i] = leaves[i*stride]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range vs {
					vs[j] = int64(i + j)
				}
				e.SetLeaves(ls, vs)
			}
		})
	}
}

// BenchmarkGrowCollapseWorkers measures a structural batch (grow then
// collapse the same 128 leaves, net tree size constant) at each pool
// size; structural updates re-simulate the whole trace, the biggest
// parallel phase the engine runs.
func BenchmarkGrowCollapseWorkers(b *testing.B) {
	const n, batch = 1 << 10, 128
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			e, leaves := benchExpr(n, w)
			targets := make([]*Node, batch)
			stride := len(leaves) / batch
			for i := 0; i < batch; i++ {
				targets[i] = leaves[i*stride]
			}
			grow := make([]GrowOp, batch)
			shrink := make([]CollapseOp, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, l := range targets {
					grow[j] = GrowOp{Leaf: l, Op: OpAdd(benchRing), LeftVal: 2, RightVal: 3}
				}
				pairs := e.GrowBatch(grow)
				for j := range shrink {
					shrink[j] = CollapseOp{Node: targets[j], NewValue: int64(j)}
				}
				_ = pairs
				e.CollapseBatch(shrink)
			}
		})
	}
}

// BenchmarkEngineOps measures the full engine round trip — submit,
// coalesce, partition, execute, resolve — for a mixed op stream from one
// goroutine. Run with -benchmem: the executor's flush loop and Future
// pool make the steady state allocate only a few objects per op.
func BenchmarkEngineOps(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ring := ModRing(1_000_000_007)
			e := NewExpr(ring, 1, WithSeed(7))
			en := e.Serve(BatchOptions{Workers: w})
			defer en.Close()
			l, r, err := en.Grow(e.Tree().Root, OpAdd(ring), 3, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch i % 3 {
				case 0:
					if err := en.SetLeaf(l, int64(i)); err != nil {
						b.Fatal(err)
					}
				case 1:
					if _, err := en.Value(r); err != nil {
						b.Fatal(err)
					}
				default:
					if _, err := en.Root(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkEngineFlush measures one executor flush of 64 pipelined
// disjoint set-leaf requests (the wave fast path) including partitioning
// and future resolution.
func BenchmarkEngineFlush(b *testing.B) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(7))
	en := e.Serve(BatchOptions{})
	defer en.Close()
	leaves := []*Node{e.Tree().Root}
	for len(leaves) < 64 {
		l, r, err := en.Grow(leaves[0], OpAdd(ring), 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		leaves = append(leaves[1:], l, r)
	}
	futs := make([]*Future, len(leaves))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, l := range leaves {
			futs[j] = en.SetLeafAsync(l, int64(i+j))
		}
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				b.Fatal(err)
			}
			f.Recycle()
		}
	}
}
