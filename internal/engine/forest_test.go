package engine_test

import (
	"sync"
	"testing"

	"dyntc"
)

func TestForestIsolation(t *testing.T) {
	f := dyntc.NewForest(dyntc.BatchOptions{})
	defer f.Close()
	ring := dyntc.ModRing(mod)

	const trees = 20
	ids := make([]dyntc.TreeID, trees)
	for i := 0; i < trees; i++ {
		id, _ := f.Create(ring, int64(i), dyntc.WithSeed(uint64(i+1)))
		ids[i] = id
	}
	if f.Len() != trees {
		t.Fatalf("Len = %d", f.Len())
	}

	// Concurrent traffic against every tree: each tree's root ends at
	// base + 2*rounds, independent of the others.
	const rounds = 25
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id dyntc.TreeID) {
			defer wg.Done()
			en, ok := f.Get(id)
			if !ok {
				t.Errorf("tree %d missing", id)
				return
			}
			rootID := 0
			cur := int64(i)
			for r := 0; r < rounds; r++ {
				_, r, err := en.GrowIDAsync(rootID, dyntc.OpAdd(ring), cur, 1).Pair()
				if err != nil {
					t.Errorf("grow: %v", err)
					return
				}
				if err := en.SetLeafIDAsync(r.ID, 2).Wait(); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				cur += 2
				if err := en.CollapseIDAsync(rootID, cur).Wait(); err != nil {
					t.Errorf("collapse: %v", err)
					return
				}
			}
		}(i, id)
	}
	wg.Wait()

	for i, id := range ids {
		en, _ := f.Get(id)
		v, err := en.Root()
		if err != nil {
			t.Fatalf("root: %v", err)
		}
		if want := int64(i) + 2*rounds; v != want {
			t.Fatalf("tree %d root = %d, want %d", i, v, want)
		}
	}

	total := f.Stats()
	if total.Grows != trees*rounds || total.Collapses != trees*rounds {
		t.Fatalf("aggregate stats: %+v", total)
	}

	if !f.Drop(ids[0]) {
		t.Fatal("Drop existing")
	}
	if f.Drop(ids[0]) {
		t.Fatal("Drop twice")
	}
	if _, ok := f.Get(ids[0]); ok {
		t.Fatal("Get after Drop")
	}
	if f.Len() != trees-1 {
		t.Fatalf("Len after drop = %d", f.Len())
	}
}
