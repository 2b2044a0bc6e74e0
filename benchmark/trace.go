package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the benchmark around its calls into each rung —
// never inside the program — kept in memory, and written out once at exit.

// span is one timed call. Times are nanoseconds since the recorder was
// created.
type span struct {
	rung       int32 // index into tracer.rungs; the rung's own span is the parent
	req        int32 // request number within the program, -1 for a rung's span
	start, end int64
}

type tracer struct {
	workload string
	t0       time.Time
	rungs    []string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// rung opens a rung's parent span and returns its index.
func (t *tracer) rung(name string) int32 {
	t.rungs = append(t.rungs, name)
	return int32(len(t.rungs) - 1)
}

func (t *tracer) add(rung, req int32, start, end time.Time) {
	t.spans = append(t.spans, span{rung, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
}

// maxSpansPerRung bounds the file, not the measurement: every span counts
// towards the metrics, the first ones of each rung are written out.
const maxSpansPerRung = 20000

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name     string `json:"name"`
		Workload string `json:"workload"`
		Request  int32  `json:"request"`
		Span     int    `json:"span"`
		Parent   int    `json:"parent"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
	}
	written := make([]int, len(t.rungs))
	for i, s := range t.spans {
		if s.req >= 0 {
			if written[s.rung] >= maxSpansPerRung {
				continue
			}
			written[s.rung]++
		}
		// Span IDs: a rung's parent span is -(rung+1), a request span its
		// position in the recording.
		l := line{Name: t.rungs[s.rung], Workload: t.workload, Request: s.req, Span: i, Parent: -int(s.rung) - 1,
			StartNS: s.start, EndNS: s.end}
		if s.req < 0 {
			l.Span, l.Parent = -int(s.rung)-1, 0
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
