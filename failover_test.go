package dyntc

// Failover tests at the library level: epoch stamping, promotion to the
// next epoch, the stale-epoch fence, and fault injection through
// BatchOptions.Faults.

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"dyntc/internal/engine"
)

// TestWaveEpochStamping: a fresh engine seals waves at epoch 1, and a
// restored tree's engine inherits the snapshot's epoch.
func TestWaveEpochStamping(t *testing.T) {
	ring := ModRing(97)
	log, _ := NewWaveLog(1024, "")
	leader := NewExpr(ring, 1, WithSeed(5))
	en := leader.Serve(BatchOptions{WaveTap: func(w Wave) { _ = log.Append(w) }})
	if en.Epoch() != 1 {
		t.Fatalf("fresh engine epoch = %d", en.Epoch())
	}
	prog := newReplicaProgram(101, ring, leader.Tree().Root)
	prog.runLive(t, en, 40)
	en.Close()
	waves, err := logSince(log, 0)
	if err != nil || len(waves) == 0 {
		t.Fatalf("no waves (%v)", err)
	}
	for _, w := range waves {
		if w.Epoch != 1 {
			t.Fatalf("wave %d stamped epoch %d, want 1", w.Seq, w.Epoch)
		}
	}
	if log.LastEpoch() != 1 {
		t.Fatalf("log epoch = %d", log.LastEpoch())
	}
}

// TestPromoteFailover is the library-level failover walk-through: a
// leader dies (its engine is simply closed), a caught-up replica is
// promoted to epoch 2, a forest restores the promoted snapshot into a
// serving engine, new waves carry the new epoch — and the demoted
// leader's late wave is rejected by the fence at both a wave log and a
// replica engine that lived through the failover.
func TestPromoteFailover(t *testing.T) {
	ring := ModRing(1_000_000_007)
	log, _ := NewWaveLog(1<<14, "")
	leader := NewExpr(ring, 1, WithSeed(9))
	en := leader.Serve(BatchOptions{WaveTap: func(w Wave) { _ = log.Append(w) }})
	snap0, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prog := newReplicaProgram(202, ring, leader.Tree().Root)
	prog.runLive(t, en, 80)

	// A replica catches up fully, then the leader "dies".
	waves, err := logSince(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	fo, pseq := replayExpr(t, snap0, waves)
	en.Close()

	// A second replica, served, that will live through the failover.
	forest := NewForest(BatchOptions{})
	defer forest.Close()
	fo2, _, err := forest.Restore(2, snap0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		if err := fo2.ApplyWave(w); err != nil {
			t.Fatal(err)
		}
	}

	// Promotion: the replica moves to epoch 2 and is re-serialized.
	fo.AdoptEpoch(fo.Epoch() + 1)
	if fo.Epoch() != 2 {
		t.Fatalf("promoted epoch = %d, want 2", fo.Epoch())
	}
	psnap, err := fo.Snapshot(pseq)
	if err != nil {
		t.Fatal(err)
	}

	// The promoted snapshot seeds a serving leader at the new epoch.
	en2, seq2, err := forest.Restore(1, psnap)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != pseq || en2.Epoch() != 2 {
		t.Fatalf("restored seq=%d epoch=%d, want %d/2", seq2, en2.Epoch(), pseq)
	}
	var mu sync.Mutex
	var epoch2 []Wave
	en2.SetWaveTap(func(w Wave) { mu.Lock(); epoch2 = append(epoch2, w); mu.Unlock() })
	var leafID int
	if err := en2.Query(func(e *Expr) { leafID = e.Tree().Leaves()[0].ID }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := en2.GrowIDAsync(leafID, OpAdd(ring), 7, 9).Pair(); err != nil {
		t.Fatal(err)
	}
	// The grow future resolves before the seal phase taps the wave; a
	// read-only barrier orders the tap before the assertions.
	if err := en2.Query(func(*Expr) {}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(epoch2) != 1 || epoch2[0].Epoch != 2 || epoch2[0].Seq != pseq+1 {
		mu.Unlock()
		t.Fatalf("post-promotion wave = %+v", epoch2)
	}
	mu.Unlock()

	// The fence: a late wave from the demoted leader (epoch 1, the old
	// continuation sequence) is refused by the log and by the replica
	// that has adopted epoch 2.
	if err := fo2.ApplyWave(epoch2[0]); err != nil {
		t.Fatal(err)
	}
	if fo2.Epoch() != 2 {
		t.Fatalf("replica engine epoch = %d after an epoch-2 wave, want 2", fo2.Epoch())
	}
	late := Wave{Seq: pseq + 2, Epoch: 1, Root: 123}
	late.Seal()
	if err := fo2.ApplyWave(late); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("late wave err = %v, want ErrStaleEpoch", err)
	}
	log2, _ := NewWaveLog(64, "")
	if err := log2.Append(epoch2[0]); err != nil {
		t.Fatal(err)
	}
	late2 := Wave{Seq: pseq + 2, Epoch: 1, Root: 123}
	late2.Seal()
	if err := log2.Append(late2); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("log append of stale wave err = %v, want ErrStaleEpoch", err)
	}

	// Byte-identical convergence across the failover: fo2's state equals
	// the promoted leader's snapshot at the same sequence.
	s2, seq3, err := en2.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	fs, fseq, err := fo2.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	if seq3 != fseq || !bytes.Equal(s2, fs) {
		t.Fatalf("post-failover replica diverged (seq %d vs %d, bytes equal %v)",
			seq3, fseq, bytes.Equal(s2, fs))
	}
}

// TestEngineFaultInjection: an injected engine.wave error poisons the
// engine deterministically — the library face of "leader killed
// mid-traffic".
func TestEngineFaultInjection(t *testing.T) {
	ring := ModRing(97)
	in := NewFaultInjector(7)
	in.Add(FaultRule{Site: "engine.wave", After: 5, Err: ErrFaultInjected, Times: 1})
	leader := NewExpr(ring, 1, WithSeed(5))
	en := leader.Serve(BatchOptions{Faults: in})
	defer en.Close()
	var firstErr error
	for i := 0; i < 50; i++ {
		if _, err := en.Root(); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("injected wave error never surfaced")
	}
	if !errors.Is(firstErr, engine.ErrPoisoned) {
		t.Fatalf("err = %v, want ErrPoisoned wrap", firstErr)
	}
	if in.Firings("engine.wave") != 1 {
		t.Fatalf("firings = %d", in.Firings("engine.wave"))
	}
}

// TestForestFaultInjection: BatchOptions.Faults reaches engines created
// through a Forest — the path dyntcd serves on — not just Expr.Serve.
func TestForestFaultInjection(t *testing.T) {
	in := NewFaultInjector(7)
	in.Add(FaultRule{Site: "engine.wave", Err: ErrFaultInjected, Times: 1})
	f := NewForest(BatchOptions{Faults: in})
	defer f.Close()
	_, en := f.Create(ModRing(97), 1)
	if _, err := en.Root(); !errors.Is(err, engine.ErrPoisoned) {
		t.Fatalf("forest engine err = %v, want ErrPoisoned wrap", err)
	}
	if in.Firings("engine.wave") != 1 {
		t.Fatalf("firings = %d", in.Firings("engine.wave"))
	}
}
