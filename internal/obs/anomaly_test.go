package obs

import (
	"testing"
	"time"
)

func newTestRecorder(j *Journal) *Recorder {
	return NewRecorder(AnomalyConfig{
		Warmup:   16,
		Window:   16,
		Cooldown: time.Hour,
		Boost:    50 * time.Millisecond,
	}, j, &TraceBoost{})
}

func TestRecorderTripsOnSpike(t *testing.T) {
	j, _ := NewJournal(16, "test", "")
	r := newTestRecorder(j)
	r.SetSnapshot(func() map[string]any { return map[string]any{"flushes": 42} })

	base := int64(time.Millisecond)
	for i := 0; i < 32; i++ {
		r.Observe("engine.flush", base+int64(i%7)*1000)
	}
	if r.Trips() != 0 || r.Active() {
		t.Fatalf("tripped on steady traffic: trips=%d active=%v", r.Trips(), r.Active())
	}

	r.Observe("engine.flush", int64(80*time.Millisecond))
	if r.Trips() != 1 {
		t.Fatalf("trips=%d after 80x spike", r.Trips())
	}
	if !r.Active() {
		t.Fatal("recorder not active after trip")
	}
	if !r.boost.Active(time.Now().UnixNano()) {
		t.Fatal("trace boost not active after trip")
	}
	// A trip journals the anomaly, then the boost announcement.
	last, ok := j.LastEvent()
	if !ok || last.Type != EvTraceBoost {
		t.Fatalf("journal event = %+v ok=%v, want %s", last, ok, EvTraceBoost)
	}
	anoms := j.Query(EvAnomaly+".engine.flush", 0, 0)
	if len(anoms) != 1 {
		t.Fatalf("anomaly events = %d, want 1", len(anoms))
	}
	ev := anoms[0]
	snap, ok := ev.Fields["snapshot"].(map[string]any)
	if !ok || snap["flushes"] != 42 {
		t.Fatalf("anomaly event snapshot = %#v", ev.Fields["snapshot"])
	}
	if ev.Fields["value_ms"].(float64) < 50 {
		t.Fatalf("anomaly value_ms = %v", ev.Fields["value_ms"])
	}

	// Cooldown: a second spike right away must not re-trip.
	r.Observe("engine.flush", int64(90*time.Millisecond))
	if r.Trips() != 1 {
		t.Fatalf("cooldown violated: trips=%d", r.Trips())
	}

	// Decay: the boost and the active bit expire with the burst window.
	deadline := time.Now().Add(2 * time.Second)
	for (r.Active() || r.boost.Active(time.Now().UnixNano())) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Active() || r.boost.Active(time.Now().UnixNano()) {
		t.Fatal("boost did not decay")
	}
}

func TestRecorderWarmupAndFloor(t *testing.T) {
	j, _ := NewJournal(16, "test", "")
	r := newTestRecorder(j)
	// A giant first spike during warmup must not trip.
	r.Observe("wal.append", int64(time.Second))
	for i := 0; i < 32; i++ {
		// Sub-millisecond samples stay under MinNS: jitter, not incidents.
		r.Observe("join", int64(10*time.Microsecond))
	}
	r.Observe("join", int64(900*time.Microsecond))
	if r.Trips() != 0 {
		t.Fatalf("tripped below the absolute floor: trips=%d", r.Trips())
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Observe("x", 1)
	r.SetSnapshot(nil)
	if r.Active() || r.Trips() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var b *TraceBoost
	b.Trigger(time.Second)
	if b.Active(time.Now().UnixNano()) || b.Deadline() != 0 {
		t.Fatal("nil boost not inert")
	}
}

func TestTraceBoostExtendsNotShrinks(t *testing.T) {
	var b TraceBoost
	b.Trigger(time.Hour)
	d1 := b.Deadline()
	b.Trigger(time.Millisecond)
	if b.Deadline() != d1 {
		t.Fatal("a shorter trigger shrank the boost deadline")
	}
	b.Trigger(2 * time.Hour)
	if b.Deadline() <= d1 {
		t.Fatal("a longer trigger did not extend the deadline")
	}
	if !b.Active(time.Now().UnixNano()) {
		t.Fatal("boost inactive inside its window")
	}
	if b.Active(b.Deadline() + 1) {
		t.Fatal("boost active past its deadline")
	}
}
