package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that takes 2 ms per request sustains 500 req/s on one
// connection.
func slowHandler(d time.Duration, calls *atomic.Int64) func(int) error {
	return func(int) error {
		calls.Add(1)
		time.Sleep(d)
		return nil
	}
}

func TestOpenLoopKeepsUp(t *testing.T) {
	var calls atomic.Int64
	st := openLoop(100, 500*time.Millisecond, 1, slowHandler(2*time.Millisecond, &calls))
	if st.Sent != st.Scheduled || st.BacklogEnd != 0 || st.growing() {
		t.Fatalf("under capacity: sent %d of %d, backlog end %d, growing %v", st.Sent, st.Scheduled, st.BacklogEnd, st.growing())
	}
	if int(calls.Load()) != st.Sent || len(st.LatNS) != st.Sent || len(st.LateNS) != st.Sent {
		t.Fatalf("sent %d, handler saw %d, %d latencies", st.Sent, calls.Load(), len(st.LatNS))
	}
	p50 := time.Duration(percentile(sortedCopy(st.LatNS), 0.5))
	if p50 < 2*time.Millisecond || p50 > 8*time.Millisecond {
		t.Fatalf("median latency %v for a 2ms handler", p50)
	}
}

func TestOpenLoopDetectsGrowingBacklog(t *testing.T) {
	var calls atomic.Int64
	st := openLoop(2000, 400*time.Millisecond, 1, slowHandler(2*time.Millisecond, &calls))
	if !st.growing() {
		t.Fatalf("4x over capacity: sent %d of %d, backlog end %d, not flagged as growing", st.Sent, st.Scheduled, st.BacklogEnd)
	}
	if st.BacklogMax < st.Scheduled/4 {
		t.Fatalf("backlog max %d of %d scheduled", st.BacklogMax, st.Scheduled)
	}
	// Latency runs from the due time: the last requests waited for most of
	// the phase even though each was served in 2 ms.
	worst := time.Duration(sortedCopy(st.LatNS)[len(st.LatNS)-1])
	if worst < 150*time.Millisecond {
		t.Fatalf("worst latency %v hides the queueing delay", worst)
	}
	late := time.Duration(sortedCopy(st.LateNS)[len(st.LateNS)-1])
	if late < 150*time.Millisecond {
		t.Fatalf("worst lateness %v: the generator did not report running late", late)
	}
	// Issue to completion leaves the queue out: every request took the
	// handler's 2 ms and little more.
	if svc := time.Duration(percentile(sortedCopy(st.serviceNS()), 0.5)); svc < 2*time.Millisecond || svc > 8*time.Millisecond {
		t.Fatalf("median issue-to-completion time %v for a 2ms handler", svc)
	}
}

// One stall delays the requests due behind it; measured from their due
// times they all show it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	n := 0
	st := openLoop(200, 500*time.Millisecond, 1, func(int) error {
		n++
		if n == 10 {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	})
	slow := 0
	for _, l := range st.LatNS {
		if time.Duration(l) > 20*time.Millisecond {
			slow++
		}
	}
	if slow < 5 {
		t.Fatalf("a 60ms stall at 200 req/s delayed only %d requests", slow)
	}
	if st.growing() {
		t.Fatalf("a transient stall was flagged as a growing backlog (end %d)", st.BacklogEnd)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	// 2000 samples: p99 is the 1980th, with 20 beyond it.
	if v, used := tailPercentile(seq(2000), 0.99); v != 1980 || used != 0.99 {
		t.Fatalf("p99 of 2000 = %d at %.4f", v, used)
	}
	// 500 samples: only 5 lie beyond p99, so fall back to the 490th (p98).
	if v, used := tailPercentile(seq(500), 0.99); v != 490 || used != 0.98 {
		t.Fatalf("tail of 500 = %d at %.4f", v, used)
	}
	// Too few samples for any tail: the median.
	if v, used := tailPercentile(seq(12), 0.99); v != 6 || used != 0.5 {
		t.Fatalf("tail of 12 = %d at %.4f", v, used)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([3.0, 5.0], n=4) == [2.5, 4.0, 5.5]
	if got, want := quartileSpread([]float64{3, 5}), (5.5-2.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread of two %v, want %v", got, want)
	}
}
