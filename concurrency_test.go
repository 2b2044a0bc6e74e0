package dyntc

// Engine waves, cross-tree query scatter and replica replay running at
// once under live mutation traffic, with -race watching. At the end every
// replica engine must have converged byte-identically to its leader
// (snapshot comparison at the same applied sequence): concurrency may
// change timing, never results.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"dyntc/internal/prng"
)

func TestConcurrentWavesQueriesAndReplay(t *testing.T) {
	const (
		trees   = 24
		writers = 4
		opsPer  = 40 // write rounds per writer; each round is 32 pipelined sets
	)
	ring := ModRing(1_000_000_007)
	forest := NewForest(BatchOptions{})
	defer forest.Close()

	ids := make([]TreeID, 0, trees)
	logs := make(map[TreeID]*WaveLog, trees)
	leaves := make(map[TreeID][]*Node, trees)
	for i := 0; i < trees; i++ {
		id, en := forest.Create(ring, int64(i+1), WithSeed(uint64(100+i)))
		// Pre-grow so write waves coalesce many sets. The tap is attached
		// after the deterministic setup, like a fresh leader.
		if err := en.Query(func(e *Expr) {
			ls := []*Node{e.Tree().Root}
			for len(ls) < 32 {
				l, r := e.Grow(ls[0], OpAdd(ring), 1, 1)
				ls = append(ls[1:], l, r)
			}
			leaves[id] = ls
		}); err != nil {
			t.Fatal(err)
		}
		wl, err := NewWaveLog(4096, "")
		if err != nil {
			t.Fatal(err)
		}
		en.SetWaveTap(func(w Wave) { _ = wl.Append(w) })
		logs[id] = wl
		ids = append(ids, id)
	}

	// Replica engines, in a forest of their own, bootstrap from the
	// initial snapshots and tail the logs while the leaders' waves run.
	replicas := NewForest(BatchOptions{})
	defer replicas.Close()
	followers := make(map[TreeID]*Engine, trees)
	for _, id := range ids {
		en, _ := forest.Get(id)
		snap, err := en.Snapshot()
		if err != nil {
			t.Fatalf("tree %d snapshot: %v", id, err)
		}
		fo, _, err := replicas.Restore(id, snap)
		if err != nil {
			t.Fatalf("tree %d replica: %v", id, err)
		}
		followers[id] = fo
	}
	catchUp := func(id TreeID) error {
		waves, err := logs[id].Since(followers[id].AppliedSeq())
		if err != nil {
			return err
		}
		for _, w := range waves {
			if err := followers[id].ApplyWave(w); err != nil {
				return err
			}
		}
		return nil
	}

	var stop atomic.Bool
	var writersWG, auxWG sync.WaitGroup

	// Writers: batched mutation traffic across all trees — 32 pipelined
	// sets over distinct leaves per round, so flushes coalesce into big
	// waves.
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := prng.New(uint64(7000 + w))
			for k := 0; k < opsPer; k++ {
				id := ids[rng.Intn(len(ids))]
				en, ok := forest.Get(id)
				if !ok {
					continue
				}
				ls := leaves[id]
				futs := make([]*Future, 0, len(ls))
				for _, leaf := range ls {
					futs = append(futs, en.SetLeafIDAsync(leaf.ID, int64(rng.Intn(1000))))
				}
				for _, f := range futs {
					if err := f.Wait(); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					f.Recycle()
				}
			}
		}(w)
	}

	// Queries: cross-tree scatter-gather. At least a few rounds run even
	// if the writers finish first.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for i := 0; i < 10 || !stop.Load(); i++ {
			res, err := forest.Query(ForestQuery{Read: ReadRoot(), Combine: CombineSum()})
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			if res.Trees == 0 {
				t.Error("query answered by zero trees")
				return
			}
		}
	}()

	// Replay: replicas tail their logs concurrently with everything else.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for i := 0; i < 10 || !stop.Load(); i++ {
			for _, id := range ids {
				if err := catchUp(id); err != nil {
					t.Errorf("tree %d replay: %v", id, err)
					return
				}
			}
		}
	}()

	// Wait for the writers, then retire the query/replay loops.
	writersWG.Wait()
	stop.Store(true)
	auxWG.Wait()

	// Final catch-up, then the replica must be byte-identical to the
	// leader at the same applied sequence.
	for _, id := range ids {
		en, _ := forest.Get(id)
		if err := catchUp(id); err != nil {
			t.Fatalf("tree %d final replay: %v", id, err)
		}
		leaderSnap, seq, err := en.SnapshotAt()
		if err != nil {
			t.Fatalf("tree %d leader snapshot: %v", id, err)
		}
		followerSnap, fseq, err := followers[id].SnapshotAt()
		if err != nil {
			t.Fatalf("tree %d replica snapshot: %v", id, err)
		}
		if fseq != seq {
			t.Fatalf("tree %d: replica at seq %d, leader snapshot at %d", id, fseq, seq)
		}
		if !bytes.Equal(leaderSnap, followerSnap) {
			t.Fatalf("tree %d: replica snapshot diverged from leader at seq %d", id, seq)
		}
	}
}
