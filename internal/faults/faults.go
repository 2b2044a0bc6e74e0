// Package faults is a deterministic fault-injection harness for the
// replication and serving stack. An Injector holds a schedule of rules
// keyed by "site" — a short dotted string naming a crash point, such as
// "wal.append" or "follower.rpc" — and the instrumented code asks the
// injector at each pass through a site whether a fault fires there.
//
// Determinism: all randomness comes from a single seeded splitmix64
// stream (internal/prng) consumed under the injector mutex, and the
// count-based triggers (After/Every/Times) are driven by per-site pass
// counters. Replaying the same schedule against the same call sequence
// reproduces the same faults, which is what lets the chaos suite assert
// byte-identical convergence against the sequential replay oracle after
// killing, partitioning, and corrupting nodes mid-traffic.
//
// A nil *Injector is valid everywhere and injects nothing, so production
// code wires the hook unconditionally and pays one nil check per site
// pass when no schedule is loaded.
package faults

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyntc/internal/prng"
)

// ErrInjected is the default error carried by rules parsed from a spec
// with `err` and no custom message. Injection sites surface it (wrapped)
// so tests can assert on it with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// Rule describes one fault at one site. Trigger fields combine as:
// passes 1..After never fire; afterwards the rule is considered every
// Every-th pass (Every==0 or 1 means every pass), fires with probability
// P (P==0 means always, for pure count-based schedules), and stops for
// good after Times firings (Times==0 means unlimited).
//
// Effect fields combine too: a firing rule first sleeps Latency, then
// runs the crash hook if Crash is set, and finally reports Err (or a
// torn write of Torn fraction at sites that support partial writes).
type Rule struct {
	Site    string        // injection site this rule applies to
	P       float64       // firing probability once triggered (0 = always)
	After   uint64        // skip the first After passes through the site
	Every   uint64        // consider only every Every-th pass (0/1 = all)
	Times   uint64        // maximum number of firings (0 = unlimited)
	Err     error         // error to inject (nil = latency/crash only)
	Latency time.Duration // sleep before returning
	Torn    float64       // fraction (0,1) of bytes written before failing, at write sites
	Crash   bool          // invoke the injector's crash hook
}

// ruleState tracks per-rule firing counts.
type ruleState struct {
	rule  Rule
	fired uint64
}

// Injector is a seeded fault schedule. The zero value is unusable; use
// New. A nil *Injector is a no-op at every method.
type Injector struct {
	mu      sync.Mutex
	rng     *prng.Source
	rules   map[string][]*ruleState
	passes  map[string]uint64
	firings map[string]uint64
	crash   func(site string, r Rule)
}

// CrashError is what the default crash hook panics with, so recovering
// layers (the engine poisons itself; tests use recover) can identify a
// scheduled crash as opposed to a genuine bug.
type CrashError struct {
	Site string
}

func (c CrashError) Error() string { return "faults: scheduled crash at " + c.Site }

// New returns an empty injector whose probabilistic decisions are driven
// by the given seed. The default crash hook panics with CrashError.
func New(seed uint64) *Injector {
	return &Injector{
		rng:     prng.New(seed),
		rules:   make(map[string][]*ruleState),
		passes:  make(map[string]uint64),
		firings: make(map[string]uint64),
		crash:   func(site string, _ Rule) { panic(CrashError{Site: site}) },
	}
}

// OnCrash replaces the crash hook. dyntcd installs an os.Exit hook so a
// scheduled crash kills the process like a real one; library tests keep
// the default panic and recover it.
func (in *Injector) OnCrash(fn func(site string, r Rule)) {
	if in == nil || fn == nil {
		return
	}
	in.mu.Lock()
	in.crash = fn
	in.mu.Unlock()
}

// Add installs a rule at its site.
func (in *Injector) Add(r Rule) {
	if in == nil || r.Site == "" {
		return
	}
	in.mu.Lock()
	in.rules[r.Site] = append(in.rules[r.Site], &ruleState{rule: r})
	in.mu.Unlock()
}

// Check records one pass through site and reports the firing rule, or
// nil. Latency is applied before returning (outside the injector lock);
// the crash hook runs after the latency. Callers decide what Err and
// Torn mean at their site; a returned rule with a nil Err is
// latency/crash-only and the caller proceeds normally.
func (in *Injector) Check(site string) *Rule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.passes[site]++
	pass := in.passes[site]
	var hit *Rule
	for _, st := range in.rules[site] {
		r := &st.rule
		if r.Times > 0 && st.fired >= r.Times {
			continue
		}
		if pass <= r.After {
			continue
		}
		if r.Every > 1 && (pass-r.After)%r.Every != 0 {
			continue
		}
		if r.P > 0 && in.float64() >= r.P {
			continue
		}
		st.fired++
		in.firings[site]++
		hit = r
		break
	}
	var crash func(string, Rule)
	if hit != nil && hit.Crash {
		crash = in.crash
	}
	in.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Latency > 0 {
		time.Sleep(hit.Latency)
	}
	if crash != nil {
		crash(site, *hit)
	}
	out := *hit
	return &out
}

// Write passes p through the fault schedule at site before handing it to
// w. A firing rule with Torn in (0,1) writes only that fraction of p and
// reports the rule's error (ErrInjected if the rule carries none) — the
// torn prefix IS written, which is the point: downstream buffers and
// files end up holding a partial record exactly as a crash mid-write
// would leave them. A firing rule without Torn suppresses the write
// entirely and reports its error.
func (in *Injector) Write(site string, w io.Writer, p []byte) (int, error) {
	r := in.Check(site)
	if r == nil || (r.Err == nil && r.Torn <= 0) {
		return w.Write(p)
	}
	err := r.Err
	if err == nil {
		err = ErrInjected
	}
	if r.Torn > 0 && r.Torn < 1 {
		n := int(float64(len(p)) * r.Torn)
		if n >= len(p) {
			n = len(p) - 1
		}
		if n < 0 {
			n = 0
		}
		wrote, werr := w.Write(p[:n])
		if werr != nil {
			return wrote, werr
		}
		return wrote, fmt.Errorf("faults: torn write at %s (%d/%d bytes): %w", site, wrote, len(p), err)
	}
	return 0, fmt.Errorf("faults: write failed at %s: %w", site, err)
}

// Passes reports how many times site has been checked.
func (in *Injector) Passes(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.passes[site]
}

// Firings reports how many faults have fired at site.
func (in *Injector) Firings(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.firings[site]
}

// float64 returns a uniform value in [0,1). Caller holds in.mu.
func (in *Injector) float64() float64 {
	return float64(in.rng.Uint64()>>11) / (1 << 53)
}

// ParseSpec parses a comma-separated list of semicolon-separated rule
// specs into rules, for the dyntcd -faults flag. Each rule is
//
//	site:key=value:key=value...
//
// with keys p (probability), after, every, times, err[=message],
// latency (duration), torn (fraction), crash. Example:
//
//	wal.append:after=100:torn=0.5:times=1;follower.rpc:p=0.2:err=partition
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		parts := strings.Split(rs, ":")
		r := Rule{Site: strings.TrimSpace(parts[0])}
		if r.Site == "" {
			return nil, fmt.Errorf("faults: rule %q has no site", rs)
		}
		for _, kv := range parts[1:] {
			key, val, _ := strings.Cut(kv, "=")
			var err error
			switch strings.TrimSpace(key) {
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
				if err == nil && !(r.P >= 0 && r.P <= 1) { // NaN fails both
					err = fmt.Errorf("p must be in [0,1]")
				}
			case "after":
				r.After, err = strconv.ParseUint(val, 10, 64)
			case "every":
				r.Every, err = strconv.ParseUint(val, 10, 64)
			case "times":
				r.Times, err = strconv.ParseUint(val, 10, 64)
			case "err":
				if val == "" {
					r.Err = ErrInjected
				} else {
					r.Err = fmt.Errorf("%w: %s", ErrInjected, val)
				}
			case "latency":
				r.Latency, err = time.ParseDuration(val)
			case "torn":
				r.Torn, err = strconv.ParseFloat(val, 64)
				if err == nil && !(r.Torn > 0 && r.Torn < 1) {
					err = fmt.Errorf("torn must be in (0,1)")
				}
			case "crash":
				r.Crash = true
			default:
				err = fmt.Errorf("unknown key")
			}
			if err != nil {
				return nil, fmt.Errorf("faults: rule %q key %q: %v", rs, key, err)
			}
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// FromSpec builds a seeded injector directly from a spec string.
func FromSpec(seed uint64, spec string) (*Injector, error) {
	rules, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	in := New(seed)
	for _, r := range rules {
		in.Add(r)
	}
	return in, nil
}
