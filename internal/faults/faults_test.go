package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNilInjectorIsNoOp: production wiring keeps a nil injector in the
// hot path, so every method must tolerate a nil receiver.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if r := in.Check("wal.append"); r != nil {
		t.Fatalf("nil injector fired: %+v", r)
	}
	var buf bytes.Buffer
	n, err := in.Write("wal.append", &buf, []byte("abc"))
	if err != nil || n != 3 || buf.String() != "abc" {
		t.Fatalf("nil injector write: n=%d err=%v buf=%q", n, err, buf.String())
	}
	if in.Passes("x") != 0 || in.Firings("x") != 0 {
		t.Fatal("nil injector has counters")
	}
	in.Add(Rule{Site: "x"})
	in.OnCrash(func(string, Rule) {})
}

// TestCountTriggers: After/Every/Times firing arithmetic.
func TestCountTriggers(t *testing.T) {
	in := New(1)
	in.Add(Rule{Site: "s", After: 2, Every: 3, Times: 2, Err: ErrInjected})
	var fired []int
	for i := 1; i <= 20; i++ {
		if r := in.Check("s"); r != nil {
			fired = append(fired, i)
		}
	}
	// Passes 1,2 skipped; then every 3rd of the remainder: 5, 8 — and
	// Times=2 stops it there.
	want := []int{5, 8}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if in.Passes("s") != 20 || in.Firings("s") != 2 {
		t.Fatalf("passes=%d firings=%d", in.Passes("s"), in.Firings("s"))
	}
}

// TestSeededDeterminism: two injectors with the same seed and schedule
// fire at identical passes; a different seed gives a different schedule.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		in := New(seed)
		in.Add(Rule{Site: "s", P: 0.3, Err: ErrInjected})
		var fired []uint64
		for i := 0; i < 200; i++ {
			if in.Check("s") != nil {
				fired = append(fired, in.Passes("s"))
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("p=0.3 over 200 passes never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d: pass %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestTornWrite: a torn rule writes a strict prefix and reports a
// wrapped ErrInjected; the prefix really lands in the writer.
func TestTornWrite(t *testing.T) {
	in := New(1)
	in.Add(Rule{Site: "w", Torn: 0.5, Times: 1})
	var buf bytes.Buffer
	payload := []byte("0123456789")
	n, err := in.Write("w", &buf, payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n != 5 || buf.String() != "01234" {
		t.Fatalf("torn write n=%d buf=%q", n, buf.String())
	}
	// Rule exhausted (Times=1): next write goes through untouched.
	buf.Reset()
	n, err = in.Write("w", &buf, payload)
	if err != nil || n != len(payload) || buf.String() != string(payload) {
		t.Fatalf("post-exhaustion write: n=%d err=%v", n, err)
	}
}

// TestErrorWriteSuppressed: an err rule without torn suppresses the
// write entirely.
func TestErrorWriteSuppressed(t *testing.T) {
	in := New(1)
	in.Add(Rule{Site: "w", Err: ErrInjected, Times: 1})
	var buf bytes.Buffer
	n, err := in.Write("w", &buf, []byte("abc"))
	if !errors.Is(err, ErrInjected) || n != 0 || buf.Len() != 0 {
		t.Fatalf("n=%d err=%v buf=%q", n, err, buf.String())
	}
}

// TestCrashHook: crash rules run the hook (default panics CrashError).
func TestCrashHook(t *testing.T) {
	in := New(1)
	in.Add(Rule{Site: "c", Crash: true, Times: 1})
	func() {
		defer func() {
			r := recover()
			ce, ok := r.(CrashError)
			if !ok || ce.Site != "c" {
				t.Fatalf("recovered %v, want CrashError{c}", r)
			}
		}()
		in.Check("c")
		t.Fatal("crash rule did not panic")
	}()

	in2 := New(1)
	var got string
	in2.OnCrash(func(site string, _ Rule) { got = site })
	in2.Add(Rule{Site: "c", Crash: true})
	in2.Check("c")
	if got != "c" {
		t.Fatalf("custom crash hook saw %q", got)
	}
}

// TestLatencyRule: latency-only rules sleep and return a rule the
// caller treats as a no-op (nil Err).
func TestLatencyRule(t *testing.T) {
	in := New(1)
	in.Add(Rule{Site: "l", Latency: 20 * time.Millisecond, Times: 1})
	t0 := time.Now()
	r := in.Check("l")
	if r == nil || r.Err != nil {
		t.Fatalf("rule = %+v", r)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Fatalf("latency rule slept only %v", d)
	}
}

// TestParseSpec round-trips the CLI grammar.
func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("wal.append:after=100:torn=0.5:times=1; follower.rpc:p=0.2:err=partition:latency=5ms ;engine.wave:every=7:crash")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Site != "wal.append" || r.After != 100 || r.Torn != 0.5 || r.Times != 1 {
		t.Fatalf("rule0 = %+v", r)
	}
	r = rules[1]
	if r.Site != "follower.rpc" || r.P != 0.2 || !errors.Is(r.Err, ErrInjected) ||
		!strings.Contains(r.Err.Error(), "partition") || r.Latency != 5*time.Millisecond {
		t.Fatalf("rule1 = %+v", r)
	}
	r = rules[2]
	if r.Site != "engine.wave" || r.Every != 7 || !r.Crash {
		t.Fatalf("rule2 = %+v", r)
	}

	for _, bad := range []string{":p=1", "s:torn=1.5", "s:after=x", "s:wat=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q parsed", bad)
		}
	}
}

// TestParseSpecRejectsOutOfRange: p must be a probability and torn a
// fraction strictly inside the record. Before the check, p=-0.5 or p=NaN
// parsed, and since Check only samples when P > 0 such a rule fired on
// every pass.
func TestParseSpecRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"s:p=0", true},
		{"s:p=1", true},
		{"s:p=0.25", true},
		{"s:p=-0.5", false},
		{"s:p=-1", false},
		{"s:p=1.0001", false},
		{"s:p=NaN", false},
		{"s:p=Inf", false},
		{"s:p=-Inf", false},
		{"s:torn=NaN", false},
		{"s:torn=0", false},
		{"s:torn=1", false},
		{"s:torn=0.5", true},
		{"a:times=1;wal.append:p=2", false},
	} {
		_, err := ParseSpec(tc.spec)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseSpec(%q): err %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "rule") {
			t.Fatalf("ParseSpec(%q): error %q does not name the rule", tc.spec, err)
		}
	}
	if _, err := ParseSpec("ok:times=1;bad.site:p=-0.5"); err == nil || !strings.Contains(err.Error(), "bad.site:p=-0.5") {
		t.Fatalf("error %v does not name the offending rule", err)
	}
}

// FuzzParseSpec: ParseSpec never panics, and every rule it accepts has a
// site, a probability in [0, 1] and a torn fraction that is 0 (off) or
// strictly inside (0, 1).
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"wal.append:after=100:torn=0.5:times=1;follower.rpc:p=0.2:err=partition",
		"engine.wave:every=7:crash",
		"follower.rpc:p=1:latency=5ms:err",
		"s:p=-1",
		"s:p=NaN:torn=NaN",
		";;  ; x:",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			if r.Site == "" {
				t.Fatalf("spec %q: accepted a rule with no site", spec)
			}
			if !(r.P >= 0 && r.P <= 1) {
				t.Fatalf("spec %q: accepted p=%v", spec, r.P)
			}
			if r.Torn != 0 && !(r.Torn > 0 && r.Torn < 1) {
				t.Fatalf("spec %q: accepted torn=%v", spec, r.Torn)
			}
		}
	})
}
