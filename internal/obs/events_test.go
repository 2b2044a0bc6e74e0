package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalRingAndQueries(t *testing.T) {
	j, err := NewJournal(4, "leader", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.LastEvent(); ok {
		t.Fatal("empty journal reported a last event")
	}
	for i := 0; i < 6; i++ {
		j.Emit(fmt.Sprintf("t%d", i), "", map[string]any{"i": i})
	}
	if j.Total() != 6 || j.Len() != 4 {
		t.Fatalf("total=%d len=%d, want 6/4", j.Total(), j.Len())
	}
	last := j.Last(0)
	if len(last) != 4 || last[0].Type != "t2" || last[3].Type != "t5" {
		t.Fatalf("ring retained %+v", last)
	}
	for i, e := range last {
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq %d, want %d", i, e.Seq, i+3)
		}
		if e.Proc != "leader" {
			t.Fatalf("event proc %q", e.Proc)
		}
	}
	if got := j.Last(2); len(got) != 2 || got[1].Type != "t5" {
		t.Fatalf("Last(2) = %+v", got)
	}
	if got := j.Query("t4", 0, 0); len(got) != 1 || got[0].Type != "t4" {
		t.Fatalf("Query(t4) = %+v", got)
	}
	if got := j.Query("", 4, 0); len(got) != 2 {
		t.Fatalf("Query(since=4) = %+v", got)
	}
	le, ok := j.LastEvent()
	if !ok || le.Type != "t5" {
		t.Fatalf("LastEvent = %+v ok=%v", le, ok)
	}
}

func TestJournalPrefixQueryAndCounters(t *testing.T) {
	j, err := NewJournal(16, "leader", "")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	j.Observe(r)
	j.Emit(EvDegradedEnter, "", nil)
	j.Emit(EvDegradedExit, "", nil)
	j.Emit(EvWALCompact, "", nil)
	if got := j.Query("follower.degraded.", 0, 0); len(got) != 2 {
		t.Fatalf("degraded prefix query = %+v", got)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`dyntc_events_total{type="follower.degraded.enter"} 1`,
		`dyntc_events_total{type="wal.compact"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Emit("x", "", nil)
	j.EmitTree("x", 1, "", nil)
	if j.Last(4) != nil || j.Len() != 0 || j.Total() != 0 {
		t.Fatal("nil journal not empty")
	}
	if _, ok := j.LastEvent(); ok {
		t.Fatal("nil journal has a last event")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalJSONLSink mirrors events to a file, and then to a file that
// was closed under the journal: every event stays in the ring and the
// counters, and a run of failed writes logs one warning naming the path.
func TestJournalJSONLSink(t *testing.T) {
	prev := slog.Default()
	defer slog.SetDefault(prev)
	for _, broken := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		j, err := NewJournal(8, "follower", path)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistry()
		j.Observe(r)
		var logged bytes.Buffer
		slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
		if broken {
			j.sink.Close()
		}
		j.EmitTree(EvShedBurst, 7, "queue full", map[string]any{"shed": 12})
		j.Emit(EvWALTorn, "truncated", nil)
		j.Close()
		slog.SetDefault(prev)

		if last := j.Last(0); len(last) != 2 || last[0].Type != EvShedBurst || last[1].Type != EvWALTorn {
			t.Fatalf("broken=%v: ring holds %+v", broken, last)
		}
		var sb strings.Builder
		if _, err := r.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `dyntc_events_total{type="wal.recover.torn"} 1`) {
			t.Fatalf("broken=%v: counter missing in:\n%s", broken, sb.String())
		}
		warnings := strings.Count(logged.String(), "event log write failed")
		if broken {
			if warnings != 1 || !strings.Contains(logged.String(), path) {
				t.Fatalf("closed sink: %d warnings, want 1 naming %s; log:\n%s", warnings, path, logged.String())
			}
			continue
		}
		if warnings != 0 {
			t.Fatalf("healthy sink logged: %s", logged.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			evs = append(evs, e)
		}
		f.Close()
		if len(evs) != 2 || evs[0].Type != EvShedBurst || evs[0].Tree != 7 || evs[1].Type != EvWALTorn {
			t.Fatalf("sink contents: %+v", evs)
		}
		if evs[0].Proc != "follower" || evs[0].Time == 0 {
			t.Fatalf("event not stamped: %+v", evs[0])
		}
	}
}
