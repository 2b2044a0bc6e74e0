package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCounterHistogramConcurrent hammers one counter and one histogram
// from many goroutines; run under -race this proves the record paths are
// synchronization-clean, and the totals prove no increment is lost. A
// scraper renders the registry while the workers observe: every scrape
// must show each histogram's _count equal to its +Inf bucket, the
// Prometheus exposition invariant.
func TestCounterHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	h := r.Seconds("test_op_seconds", "op latency")
	g := r.HistogramWith("test_width", "plain widths", CountBuckets, 1)

	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i%1000) * 1_000) // 0..999µs
				g.Observe(int64(i % 50))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scrapes := 0; ; scrapes++ {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if err := infMatchesCount(buf.String()); err != nil {
			t.Fatalf("scrape %d: %v", scrapes, err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Count(); got != workers*perWorker {
		t.Fatalf("width histogram count = %d, want %d", got, workers*perWorker)
	}
	// The +Inf cumulative count in the rendered text must equal the total.
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if !strings.Contains(buf.String(), `test_op_seconds_bucket{le="+Inf"} 80000`) {
		t.Fatalf("rendered output missing cumulative +Inf bucket:\n%s", buf.String())
	}
}

// infMatchesCount checks every unlabeled histogram in a rendered scrape:
// its _count sample must equal its le="+Inf" bucket.
func infMatchesCount(text string) error {
	inf := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if base, isInf := strings.CutSuffix(name, `_bucket{le="+Inf"}`); isInf {
			inf[base] = val
		} else if base, isCount := strings.CutSuffix(name, "_count"); isCount && inf[base] != val {
			return fmt.Errorf("%s_count = %s, +Inf bucket = %s", base, val, inf[base])
		}
	}
	return nil
}

// TestRegistryIdempotent checks that re-registering the same instrument
// returns the same instance (layers wire independently without fighting).
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "kind", "grow")
	b := r.Counter("x_total", "x", "kind", "grow")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	h1 := r.Seconds("y_seconds", "y")
	h2 := r.Seconds("y_seconds", "y")
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.GaugeFunc("x_total", "x", func() float64 { return 0 })
}

// TestPrometheusGolden renders a deterministically populated registry and
// compares it byte-for-byte against the committed exposition-format
// golden. Regenerate with: go test ./internal/obs -run Golden -update
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()

	reqs := r.Counter("dyntc_engine_requests_total", "requests submitted, by kind", "kind", "grow")
	reqs.Add(41)
	r.Counter("dyntc_engine_requests_total", "requests submitted, by kind", "kind", "value").Add(7)
	r.Counter("dyntc_engine_flushes_total", "coalesced flushes executed").Add(5)
	r.GaugeFunc("dyntc_sched_utilization", "fraction of worker time spent running tasks",
		func() float64 { return 0.75 })
	r.CounterFunc("dyntc_sched_steals_total", "tasks taken from another worker's deque",
		func() float64 { return 12 })

	h := r.Seconds("dyntc_engine_flush_seconds", "wall time of one coalesced flush")
	h.Observe(3_000)     // 3µs
	h.Observe(70_000)    // 70µs
	h.Observe(2_000_000) // 2ms
	w := r.HistogramWith("dyntc_query_scatter_width", "chunks per cross-tree query", CountBuckets, 1)
	w.Observe(1)
	w.Observe(16)
	lab := r.Seconds("dyntc_sched_task_seconds", "pool task latency, by step kind", "kind", "grow")
	lab.Observe(500_000)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered output differs from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestTraceRingEviction fills the bounded ring behind the span log and
// the event journal past capacity and checks exactly N values are
// retained, the oldest evicted, newest last.
func TestTraceRingEviction(t *testing.T) {
	const capacity = 8
	r := newRing[Span](capacity, DefaultSpanCap)
	if got := r.last(0); len(got) != 0 {
		t.Fatalf("empty ring last(0) = %+v", got)
	}
	for i := 1; i <= 20; i++ {
		r.add(Span{Seq: uint64(i)})
	}
	if got := r.len(); got != capacity {
		t.Fatalf("len = %d, want %d", got, capacity)
	}
	if got := r.total(); got != 20 {
		t.Fatalf("total = %d, want 20", got)
	}
	all := r.last(0)
	if len(all) != capacity {
		t.Fatalf("last(0) returned %d values, want %d", len(all), capacity)
	}
	for i, s := range all {
		if want := uint64(13 + i); s.Seq != want {
			t.Fatalf("value %d has seq %d, want %d (oldest must be evicted)", i, s.Seq, want)
		}
	}
	last3 := r.last(3)
	if len(last3) != 3 || last3[0].Seq != 18 || last3[2].Seq != 20 {
		t.Fatalf("last(3) = %+v, want seqs 18,19,20", last3)
	}
	if got := r.last(100); len(got) != capacity {
		t.Fatalf("last(100) returned %d values, want %d", len(got), capacity)
	}
	odd := r.filter(func(s Span) bool { return s.Seq%2 == 1 })
	if len(odd) != 4 || odd[0].Seq != 13 || odd[3].Seq != 19 {
		t.Fatalf("filter(odd) = %+v, want seqs 13,15,17,19", odd)
	}
	if d := newRing[Event](0, DefaultJournalCap); len(d.buf) != DefaultJournalCap {
		t.Fatalf("default capacity = %d, want %d", len(d.buf), DefaultJournalCap)
	}
}

// TestTraceRingConcurrent hammers both ring owners — the span log and
// the event journal, each locking its own ring — for the race detector.
func TestTraceRingConcurrent(t *testing.T) {
	spans := NewSpanLog(32, "leader")
	events, err := NewJournal(32, "leader", "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2_000; i++ {
				spans.Add(Span{Seq: uint64(i + 1)})
				events.Emit("test", "", nil)
				if i%64 == 0 {
					spans.Last(8)
					spans.BySeq(uint64(i + 1))
					events.Query("test", uint64(i), 8)
				}
			}
		}()
	}
	wg.Wait()
	if spans.Total() != 8_000 || spans.Len() != 32 {
		t.Fatalf("span log total/len = %d/%d, want 8000/32", spans.Total(), spans.Len())
	}
	if events.Total() != 8_000 || events.Len() != 32 {
		t.Fatalf("journal total/len = %d/%d, want 8000/32", events.Total(), events.Len())
	}
	if last, ok := events.LastEvent(); !ok || last.Seq != 8_000 {
		t.Fatalf("last event = %+v, want seq 8000", last)
	}
}

// TestLabelEscaping checks label values render escaped per the format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escaping", "path", `a\b"c`+"\n").Inc()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\\b\"c\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing; got:\n%s", buf.String())
	}
}
