package engine

import (
	"testing"
	"time"
)

// stubHost is the minimal Host for tests that never route requests.
type stubHost struct{}

func (stubHost) Tree() *TreeT                       { return &TreeT{} }
func (stubHost) GrowBatch(ops []GrowOp) [][2]*NodeT { return make([][2]*NodeT, len(ops)) }
func (stubHost) CollapseBatch([]CollapseOp)         {}
func (stubHost) SetLeaves([]*NodeT, []int64)        {}
func (stubHost) SetOps([]*NodeT, []OpT)             {}
func (stubHost) Values(ns []*NodeT) []int64         { return make([]int64, len(ns)) }
func (stubHost) Root() int64                        { return 0 }

// TestForestPercentilesMergeWindows proves TotalStats computes forest
// percentiles over the union of per-engine latency windows: a forest
// where one tree is 100x slower than the other must report the combined
// median (the fast tree's), not the slow tree's median as Stats.Add's
// worst-engine fallback would.
func TestForestPercentilesMergeWindows(t *testing.T) {
	fast, slow := New(stubHost{}, Options{}), New(stubHost{}, Options{})
	defer fast.Close()
	defer slow.Close()
	for i := 0; i < 100; i++ {
		fast.stats.flushDone(1 * time.Millisecond)
		slow.stats.flushDone(100 * time.Millisecond)
	}

	// Per-engine snapshots see their own windows.
	if p50 := fast.Stats().FlushP50US; p50 != 1000 {
		t.Fatalf("fast engine p50 = %v µs, want 1000", p50)
	}
	if p50 := slow.Stats().FlushP50US; p50 != 100000 {
		t.Fatalf("slow engine p50 = %v µs, want 100000", p50)
	}

	total := TotalStats([]*Engine{fast, slow})
	// 200 merged samples: 100 at 1ms then 100 at 100ms. The median index
	// int(0.5*199) = 99 lands on the last 1ms sample; the old max-merge
	// reported 100000µs here — the bug this guards against.
	if total.FlushP50US != 1000 {
		t.Fatalf("forest p50 = %v µs, want 1000 (merged median, not worst tree)", total.FlushP50US)
	}
	if total.FlushP99US != 100000 {
		t.Fatalf("forest p99 = %v µs, want 100000", total.FlushP99US)
	}

	// Plain snapshot Add (no window access) keeps the documented
	// worst-engine upper bound.
	var sum Stats
	sum.Add(fast.Stats())
	sum.Add(slow.Stats())
	if sum.FlushP50US != 100000 {
		t.Fatalf("Stats.Add p50 = %v µs, want worst-engine 100000", sum.FlushP50US)
	}
}

// TestPercentilesUSEmpty checks the zero-sample path.
func TestPercentilesUSEmpty(t *testing.T) {
	if p50, p99 := percentilesUS(nil); p50 != 0 || p99 != 0 {
		t.Fatalf("empty percentiles = %v, %v; want 0, 0", p50, p99)
	}
}
