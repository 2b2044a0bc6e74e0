// Lifecycle event journal: the system's own incident log. Where metrics
// aggregate and spans sample, the journal records the rare, discrete
// state transitions an operator asks about first — who promoted, when a
// follower went degraded, why the WAL was truncated — as structured
// events in a bounded ring (ring.go) with an optional JSONL file mirror.
// Every subsystem emits into one shared Journal; the server serves it at
// GET /v1/events and counts emissions per type in /metrics
// (dyntc_events_total{type=...}).
package obs

import (
	"encoding/json"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"
)

// Event type taxonomy. Types are dot-separated <layer>.<transition>
// strings; the set below is what the built-in subsystems emit. Emitters
// may add new types freely — the journal and its counters are
// type-agnostic — but anything listed here is load-bearing for the
// chaos-suite event-sequence assertions.
const (
	// EvProcessStart marks process boot. Emitted first, so the
	// dyntc_events_total family always renders on a fresh scrape.
	EvProcessStart = "process.start"
	// EvPromote marks a follower committing a promotion to leader.
	EvPromote = "leader.promote"
	// EvDemote marks a leader fencing itself behind a higher epoch.
	EvDemote = "leader.demote"
	// EvEpochAdopt marks a process adopting a higher epoch from its WAL.
	EvEpochAdopt = "epoch.adopt"
	// EvDegradedEnter / EvDegradedExit mark a follower crossing its
	// consecutive-error threshold, and recovering from it.
	EvDegradedEnter = "follower.degraded.enter"
	EvDegradedExit  = "follower.degraded.exit"
	// EvRebootstrap marks a follower discarding state and re-bootstrapping
	// from a leader snapshot (410-truncated log or divergence).
	EvRebootstrap = "follower.rebootstrap"
	// EvWALTorn marks startup recovery truncating a torn WAL tail.
	EvWALTorn = "wal.recover.torn"
	// EvRecoverRefused marks startup recovery keeping aside the files of
	// a tree it cannot read, which it does not serve.
	EvRecoverRefused = "recover.refused"
	// EvWALCompact marks a WAL compaction pass.
	EvWALCompact = "wal.compact"
	// EvShedBurst marks a burst of load-shedded requests (rate-limited to
	// at most one event per second per engine).
	EvShedBurst = "engine.shed.burst"
)

// Event is one recorded lifecycle transition. Time is UnixNano so events
// from different processes order on a shared axis; Seq orders events
// within one journal. Fields carries type-specific detail (sequence
// numbers, epochs, measured values).
type Event struct {
	Seq    uint64         `json:"seq"`
	Time   int64          `json:"time"`
	Type   string         `json:"type"`
	Proc   string         `json:"proc,omitempty"`
	Tree   uint64         `json:"tree,omitempty"`
	Msg    string         `json:"msg,omitempty"`
	Fields map[string]any `json:"fields,omitempty"`
}

// DefaultJournalCap is the journal ring capacity when none is given.
// Events are rare (state transitions, not samples), so a small ring
// covers hours of incident history.
const DefaultJournalCap = 1024

// Journal is the bounded lifecycle event ring plus an optional JSONL
// file mirror. All methods are safe for concurrent use and nil-safe: emitting
// into a nil journal is a no-op, so subsystems thread an optional
// *Journal without guarding every call site.
type Journal struct {
	mu   sync.Mutex
	ring ring[Event]
	proc string

	// sink mirrors every event to an append-only JSONL file, one write
	// per event, so a killed process loses none it journaled. sinkFailing
	// holds while its writes fail, so a run of failures logs one warning.
	sink        *os.File
	sinkFailing bool

	reg      *Registry
	counters map[string]*Counter
}

// NewJournal creates a journal retaining up to capacity events
// (DefaultJournalCap when <= 0). proc stamps every event with the
// emitting process's role. A non-empty path mirrors every event to an
// append-only JSONL file.
func NewJournal(capacity int, proc, path string) (*Journal, error) {
	j := &Journal{ring: newRing[Event](capacity, DefaultJournalCap), proc: proc}
	if path != "" {
		sink, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		j.sink = sink
	}
	return j, nil
}

// Observe attaches a metrics registry: every emission after this call
// increments dyntc_events_total{type=<event type>}. Counters are created
// lazily per type, so cardinality is bounded by the taxonomy actually
// exercised.
func (j *Journal) Observe(r *Registry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.reg = r
	j.counters = make(map[string]*Counter)
	j.mu.Unlock()
}

// Record appends one event, stamping Seq, Time (when zero), and the
// journal's process label.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	if e.Time == 0 {
		e.Time = time.Now().UnixNano()
	}
	if e.Proc == "" {
		e.Proc = j.proc
	}
	j.mu.Lock()
	e.Seq = j.ring.total() + 1
	j.ring.add(e)
	if j.reg != nil {
		c, ok := j.counters[e.Type]
		if !ok {
			c = j.reg.Counter("dyntc_events_total",
				"lifecycle events journaled, by type", "type", e.Type)
			j.counters[e.Type] = c
		}
		c.Inc()
	}
	if j.sink != nil {
		j.mirror(e)
	}
	j.mu.Unlock()
}

// mirror appends e to the JSONL file as one line. The ring and the
// counters already hold the event; a failed write is logged once per run
// of failures.
func (j *Journal) mirror(e Event) {
	b, err := json.Marshal(e)
	if err == nil {
		_, err = j.sink.Write(append(b, '\n'))
	}
	if err != nil && !j.sinkFailing {
		slog.Warn("event log write failed", "path", j.sink.Name(), "err", err)
	}
	j.sinkFailing = err != nil
}

// Emit journals one event of the given type.
func (j *Journal) Emit(typ, msg string, fields map[string]any) {
	j.Record(Event{Type: typ, Msg: msg, Fields: fields})
}

// EmitTree journals one event scoped to a tree.
func (j *Journal) EmitTree(typ string, tree uint64, msg string, fields map[string]any) {
	j.Record(Event{Type: typ, Tree: tree, Msg: msg, Fields: fields})
}

// Last returns up to n of the most recent events, oldest first
// (n <= 0 means all retained).
func (j *Journal) Last(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.last(n)
}

// Query returns up to n retained events with Seq > since, oldest first,
// filtered to the given type when typ is non-empty. A typ ending in "."
// matches as a prefix, so typ="follower.degraded." selects both edges.
// n <= 0 means no count limit.
func (j *Journal) Query(typ string, since uint64, n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := j.ring.filter(func(e Event) bool {
		return e.Seq > since && (typ == "" || e.Type == typ ||
			strings.HasSuffix(typ, ".") && strings.HasPrefix(e.Type, typ))
	})
	j.mu.Unlock()
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// LastEvent returns the most recent event (ok=false when none yet).
func (j *Journal) LastEvent() (Event, bool) {
	if last := j.Last(1); len(last) == 1 {
		return last[0], true
	}
	return Event{}, false
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.len()
}

// Total returns the number of events ever journaled (including evicted).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.total()
}

// Close closes the JSONL file mirror, if any.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink == nil {
		return nil
	}
	err := j.sink.Close()
	j.sink = nil
	return err
}
