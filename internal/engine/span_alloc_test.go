package engine

import (
	"testing"
	"time"

	"dyntc/internal/obs"
)

// newSpanEngine builds an in-package engine with an observability hub
// attached whose sampling period is large enough that no flush is
// cadence-sampled.
func newSpanEngine(t testing.TB) *Engine {
	t.Helper()
	h, err := obs.NewHub(obs.HubConfig{Proc: "test", TraceSample: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	en := New(stubHost{}, Options{Obs: h})
	t.Cleanup(en.Close)
	return en
}

// TestBeginFlushSpanUnsampledZeroAlloc guards the acceptance invariant:
// an engine with span tracing enabled but an unsampled flush (cadence
// miss, no request carrying a trace header) must not allocate in
// beginFlushSpan — the per-flush cost is a counter compare plus one span
// field compare per request.
func TestBeginFlushSpanUnsampledZeroAlloc(t *testing.T) {
	en := newSpanEngine(t)
	en.flushSeq = 5 // 5 % (1<<30) != 0 → cadence miss
	futs := []*Future{{}, {}, {}, {}}
	now := time.Now()

	allocs := testing.AllocsPerRun(200, func() {
		en.beginFlushSpan(futs, now)
	})
	if allocs != 0 {
		t.Fatalf("beginFlushSpan allocated %v per unsampled flush, want 0", allocs)
	}
	if en.sc.spanActive {
		t.Fatal("unsampled flush marked span-active")
	}
}

// TestBeginFlushSpanAdoptsHeaderTrace checks the force-sampling path: a
// request carrying an explicit trace context makes the flush sampled
// regardless of cadence, and its trace/span are adopted as the flush
// span's trace and parent.
func TestBeginFlushSpanAdoptsHeaderTrace(t *testing.T) {
	en := newSpanEngine(t)
	en.flushSeq = 5
	sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	futs := []*Future{{}, {span: sc}, {}}

	en.beginFlushSpan(futs, time.Now())
	if !en.sc.spanActive {
		t.Fatal("flush carrying a traced request not sampled")
	}
	if en.sc.spanTrace != sc.Trace || en.sc.spanParent != sc.Span {
		t.Fatalf("adopted trace/parent = %v/%v, want %v/%v",
			en.sc.spanTrace, en.sc.spanParent, sc.Trace, sc.Span)
	}
	if en.sc.spanFlush == 0 {
		t.Fatal("sampled flush has no flush span id")
	}

	// Cadence sampling without a header mints a fresh trace.
	en.flushSeq = 0 // 0 % anything == 0 → cadence hit
	en.beginFlushSpan([]*Future{{}}, time.Now())
	if !en.sc.spanActive || en.sc.spanTrace == 0 || en.sc.spanParent != 0 {
		t.Fatalf("cadence-sampled flush state = %+v", en.sc)
	}
}

// TestObserveFlushSinkZeroAlloc: every flush of a timing engine hands
// its record to the hub by value, so an unsampled flush still allocates
// nothing.
func TestObserveFlushSinkZeroAlloc(t *testing.T) {
	en := newSpanEngine(t)
	sl := en.opts.Obs.Spans()
	en.flushSeq = 5
	en.beginFlushSpan([]*Future{{}}, time.Now())
	en.sc.flushRec.Waves = 2
	allocs := testing.AllocsPerRun(200, func() {
		en.observeFlush(3, 10, 1000)
	})
	if allocs != 0 {
		t.Fatalf("observeFlush allocated %v per unsampled flush, want 0", allocs)
	}
	if got := en.sc.flushRec; got.Reqs != 3 || got.Waves != 2 || got.Coalesce != 10 || got.Flush != 1000 {
		t.Fatalf("sink record = %+v, want reqs 3 waves 2 coalesce 10 flush 1000", got)
	}
	if sl.Total() != 0 {
		t.Fatalf("unsampled flush recorded %d spans", sl.Total())
	}
}

// BenchmarkBeginFlushSpanUnsampled pins the unsampled flush-path span
// check; run with -benchmem to watch the 0 allocs/op column.
func BenchmarkBeginFlushSpanUnsampled(b *testing.B) {
	en := newSpanEngine(b)
	en.flushSeq = 5
	futs := make([]*Future, 32)
	for i := range futs {
		futs[i] = &Future{}
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.beginFlushSpan(futs, now)
	}
}
