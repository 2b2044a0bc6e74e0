// Package obs is the process-wide observability layer: a dependency-free,
// lock-cheap metrics registry (atomic counters, scrape-time gauge
// functions, fixed-bucket histograms with an Observe(ns) fast path) plus
// the span log and event journal (span.go, events.go), both bounded rings
// (ring.go), and the Hub (hub.go) that bundles them with the slow-wave
// log into one handle per process.
// Instruments are created once at wiring time and cached by their
// callers; the hot path is one or two atomic adds with no map lookups and
// no locks. The registry renders itself in the Prometheus text exposition
// format (version 0.0.4) with a hand-rolled writer — no external
// dependencies, so every internal package may import obs without
// dragging anything in.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter: one atomic add per
// increment, read at scrape time.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram. Values are recorded as int64 —
// nanoseconds for time histograms, plain magnitudes otherwise — and
// divided by the family's scale only at scrape time, so the Observe fast
// path is a short bounds scan plus two atomic adds, lock-free. There is no
// separate count: it is the sum of the bucket counts, so a scrape that
// reads each bucket once renders a _count equal to its +Inf bucket even
// while observations land.
type Histogram struct {
	bounds []int64         // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	sum    atomic.Int64
}

// Observe records one value (nanoseconds for *_seconds histograms).
func (h *Histogram) Observe(v int64) {
	bs := h.bounds
	i := 0
	for i < len(bs) && v > bs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// DurationBuckets are the default bounds for time-valued histograms, in
// nanoseconds: 1µs to 10s, roughly 1-2.5-5 per decade. Rendered in
// seconds (scale 1e9) at scrape time.
var DurationBuckets = []int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// SizeBuckets are default bounds for byte-sized histograms: 1KiB to 1GiB.
var SizeBuckets = []int64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// CountBuckets are default bounds for small-cardinality histograms
// (batch sizes, scatter widths): powers of two, 1 to 4096.
var CountBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labeled sample series of a family: exactly one of counter,
// fn, hist is set, matching the family's type.
type child struct {
	labels  string // rendered `k="v",k2="v2"` pairs, "" when unlabeled
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// family is one metric family: a name, HELP/TYPE metadata, and its
// labeled children.
type family struct {
	name   string
	help   string
	typ    string
	scale  float64 // histogram value divisor at scrape time (1e9 for seconds)
	bounds []int64
	kids   []*child
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration takes the registry lock; recording on the returned
// instruments never does. Registering the same name+labels again returns
// the existing instrument (wiring is idempotent); re-registering a name
// with a different type or bucket layout panics — that is a programming
// error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns ("kind", "grow", "op", "+") into `kind="grow",op="+"`.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list (want key, value pairs)")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// fam returns the family, creating it on first use and panicking on a
// type conflict.
func (r *Registry) fam(name, help, typ string) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, scale: 1}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// find returns the family's child with the given rendered labels.
func (f *family) find(labels string) *child {
	for _, k := range f.kids {
		if k.labels == labels {
			return k
		}
	}
	return nil
}

// Counter returns the counter name{labels...}, registering it on first
// use. Labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typeCounter)
	if k := f.find(ls); k != nil {
		if k.counter == nil {
			panic("obs: " + name + " registered as counter func, requested as counter")
		}
		return k.counter
	}
	c := &Counter{}
	f.kids = append(f.kids, &child{labels: ls, counter: c})
	return c
}

// CounterFunc registers a counter whose value is computed at scrape time
// — a window onto a count maintained elsewhere (e.g. an engine's own
// atomic stats). Registering the same name+labels again replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.funcChild(name, help, typeCounter, fn, labels)
}

// GaugeFunc registers a gauge evaluated at scrape time. Registering the
// same name+labels again replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.funcChild(name, help, typeGauge, fn, labels)
}

func (r *Registry) funcChild(name, help, typ string, fn func() float64, labels []string) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typ)
	if k := f.find(ls); k != nil {
		if k.fn == nil {
			panic("obs: " + name + " already registered with a stored value")
		}
		k.fn = fn
		return
	}
	f.kids = append(f.kids, &child{labels: ls, fn: fn})
}

// Seconds returns a duration histogram (record nanoseconds via Observe;
// rendered in seconds) over DurationBuckets.
func (r *Registry) Seconds(name, help string, labels ...string) *Histogram {
	return r.HistogramWith(name, help, DurationBuckets, 1e9, labels...)
}

// HistogramWith returns a histogram with explicit bounds and scrape-time
// scale (observed values are divided by scale when rendered; use 1 for
// plain magnitudes), registering it on first use.
func (r *Registry) HistogramWith(name, help string, bounds []int64, scale float64, labels ...string) *Histogram {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, typeHistogram)
	if f.bounds == nil {
		f.bounds = bounds
		f.scale = scale
	} else if len(f.bounds) != len(bounds) || f.scale != scale {
		panic("obs: " + name + " re-registered with different buckets")
	}
	if k := f.find(ls); k != nil {
		return k.hist
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	f.kids = append(f.kids, &child{labels: ls, hist: h})
	return h
}

// WriteTo renders every family in the Prometheus text exposition format
// (families and series in sorted order, so output is deterministic for a
// given set of values). It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	kids := make([][]*child, len(names))
	for i, name := range names {
		f := r.fams[name]
		fams[i] = f
		ks := make([]*child, len(f.kids))
		copy(ks, f.kids)
		sort.Slice(ks, func(a, b int) bool { return ks[a].labels < ks[b].labels })
		kids[i] = ks
	}
	r.mu.Unlock()

	cw := &countWriter{w: w}
	for i, f := range fams {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range kids[i] {
			writeChild(cw, f, k)
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

func writeChild(w io.Writer, f *family, k *child) {
	switch {
	case k.counter != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, braced(k.labels), k.counter.Value())
	case k.fn != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, braced(k.labels), fmtFloat(k.fn()))
	case k.hist != nil:
		h := k.hist
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := fmtFloat(float64(b) / f.scale)
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(k.labels, `le="`+le+`"`)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(k.labels, `le="+Inf"`)), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(k.labels), fmtFloat(float64(h.sum.Load())/f.scale))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(k.labels), cum)
	}
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
