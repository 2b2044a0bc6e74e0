package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanIDRoundTrip(t *testing.T) {
	for _, id := range []SpanID{1, 0xdeadbeef, SpanID(^uint64(0)), NewTraceID()} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("String(%v) = %q, want 16 hex digits", uint64(id), s)
		}
		back, err := ParseSpanID(s)
		if err != nil || back != id {
			t.Fatalf("ParseSpanID(%q) = %v, %v; want %v", s, back, err, id)
		}
		b, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var dec SpanID
		if err := json.Unmarshal(b, &dec); err != nil || dec != id {
			t.Fatalf("json round trip %s -> %v, %v; want %v", b, dec, err, id)
		}
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("f", 17)} {
		if _, err := ParseSpanID(bad); err == nil {
			t.Fatalf("ParseSpanID(%q) accepted", bad)
		}
	}
}

func TestNewIDsUniqueNonZero(t *testing.T) {
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("zero span id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
}

// TestWaveSpanIDDeterministic is the cross-process stitching contract:
// leader and follower must derive the same wave span ID from (epoch,
// seq) with no coordination.
func TestWaveSpanIDDeterministic(t *testing.T) {
	if WaveSpanID(1, 42) != WaveSpanID(1, 42) {
		t.Fatal("WaveSpanID not deterministic")
	}
	if WaveSpanID(1, 42) == WaveSpanID(2, 42) || WaveSpanID(1, 42) == WaveSpanID(1, 43) {
		t.Fatal("WaveSpanID collides across adjacent (epoch, seq)")
	}
	if WaveSpanID(0, 0) == 0 {
		t.Fatal("WaveSpanID must be non-zero")
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	got := ParseTraceHeader(FormatTraceHeader(sc))
	if got != sc {
		t.Fatalf("header round trip = %+v, want %+v", got, sc)
	}
	// A bare trace ID is accepted.
	bare := ParseTraceHeader(sc.Trace.String())
	if bare.Trace != sc.Trace || bare.Span != 0 {
		t.Fatalf("bare header = %+v", bare)
	}
	// Malformed values degrade to untraced, never error.
	for _, bad := range []string{"", "nope", "1234-zz", "-", strings.Repeat("a", 40)} {
		if sc := ParseTraceHeader(bad); sc.Valid() && bad != "1234-zz" {
			t.Fatalf("ParseTraceHeader(%q) = %+v, want invalid", bad, sc)
		}
	}
	// A good trace with a bad span keeps the trace.
	if sc := ParseTraceHeader("00000000000000ff-zz"); sc.Trace != 0xff || sc.Span != 0 {
		t.Fatalf("trace with bad span = %+v", sc)
	}
}

func TestSpanLogRingAndFilters(t *testing.T) {
	l := NewSpanLog(4, "leader")
	tr := NewTraceID()
	for i := 1; i <= 6; i++ {
		s := Span{Trace: NewTraceID(), Span: NewSpanID(), Name: "n", Seq: uint64(i)}
		if i%2 == 0 {
			s.Trace = tr
		}
		l.Add(s)
	}
	if l.Total() != 6 || l.Len() != 4 {
		t.Fatalf("total=%d len=%d, want 6/4", l.Total(), l.Len())
	}
	last := l.Last(10)
	if len(last) != 4 || last[0].Seq != 3 || last[3].Seq != 6 {
		t.Fatalf("Last = %+v", last)
	}
	if all := l.Last(0); len(all) != 4 || all[0].Seq != 3 {
		t.Fatalf("Last(0) = %+v, want every retained span", all)
	}
	for _, s := range last {
		if s.Proc != "leader" {
			t.Fatalf("proc = %q, want leader", s.Proc)
		}
	}
	byTrace := l.ByTrace(tr)
	if len(byTrace) != 2 || byTrace[0].Seq != 4 || byTrace[1].Seq != 6 {
		t.Fatalf("ByTrace = %+v", byTrace)
	}
	bySeq := l.BySeq(5)
	if len(bySeq) != 1 || bySeq[0].Seq != 5 {
		t.Fatalf("BySeq = %+v", bySeq)
	}
	// nil-safety: a detached log swallows everything.
	var nilLog *SpanLog
	nilLog.Add(Span{})
	if nilLog.Total() != 0 || nilLog.Last(1) != nil {
		t.Fatal("nil SpanLog not inert")
	}
}

// FuzzParseTraceHeader: ParseTraceHeader never panics, and whatever it
// returns survives a format/parse round trip unchanged.
func FuzzParseTraceHeader(f *testing.F) {
	for _, s := range []string{
		"00000000deadbeef-0000000000000001",
		"deadbeef",
		"DEADBEEF-ff",
		" 1-2 ",
		"1-2-3",
		"-",
		"ffffffffffffffff-ffffffffffffffff",
		"10000000000000000-1",
		"zz-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc := ParseTraceHeader(v)
		if back := ParseTraceHeader(FormatTraceHeader(sc)); back != sc {
			t.Fatalf("header %q parsed as %+v, which round-trips to %+v", v, sc, back)
		}
	})
}
