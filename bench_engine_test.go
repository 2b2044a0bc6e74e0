package dyntc

// Engine benchmarks: the executor's round trip and one flush. Run with
// -benchmem to see the executor's allocation behaviour.

import "testing"

// BenchmarkEngineOps measures the full engine round trip — submit,
// coalesce, partition, execute, resolve — for a mixed op stream from one
// goroutine. Run with -benchmem: the executor's flush loop and Future
// pool make the steady state allocate only a few objects per op.
func BenchmarkEngineOps(b *testing.B) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(7))
	en := e.Serve(BatchOptions{})
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
			futs[j] = en.SetLeafIDAsync(l.ID, int64(i+j))
		}
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				b.Fatal(err)
			}
			f.Recycle()
		}
	}
}
