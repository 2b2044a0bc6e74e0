package dyntc

import (
	"errors"
	"sync"
	"testing"

	"dyntc/internal/engine"
)

// TestForestOneIndex races the forest's lifecycle (Create, Restore,
// Drop) against its readers (Get, Len, Each, Query) and checks that they
// all read one index. Once Create or Restore returns, Get and Query both
// find the tree; once Drop returns, Get misses and Query reports
// ErrQueryNoTree. While trees are only added, a tree Query answered for
// is one Get finds; while trees are only dropped, a tree Get misses is
// one Query reports missing. Run it under -race.
func TestForestOneIndex(t *testing.T) {
	const (
		writers = 4
		rounds  = 50
	)
	ring := ModRing(97)
	snap, err := NewExpr(ring, 5, WithSeed(3)).Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewForest(BatchOptions{})
	defer f.Close()

	served := func(id TreeID, want int64) {
		t.Helper()
		if _, ok := f.Get(id); !ok {
			t.Errorf("Get(%d) missed a served tree", id)
		}
		res, err := f.Query(ForestQuery{Select: QueryIDs(id), Read: ReadRoot(), Detail: true})
		if err != nil || res.Trees != 1 || res.Detail[0].Err != nil || res.Detail[0].Value != want {
			t.Errorf("Query(%d) = %+v, %v; want root %d", id, res, err, want)
		}
	}
	gone := func(id TreeID) {
		t.Helper()
		if _, ok := f.Get(id); ok {
			t.Errorf("Get(%d) found a dropped tree", id)
		}
		res, err := f.Query(ForestQuery{Select: QueryIDs(id), Read: ReadRoot(), Detail: true})
		if err != nil || len(res.Detail) != 1 || !errors.Is(res.Detail[0].Err, ErrQueryNoTree) {
			t.Errorf("Query(%d) after Drop = %+v, %v; want ErrQueryNoTree", id, res, err)
		}
	}
	// race runs write(w) on every writer while reader loops, then stops
	// the reader. Len moves only one way while the writers do: up while
	// they add trees (grow), down while they drop them.
	race := func(grow bool, write func(w int), reader func()) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			last := f.Len()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := f.Len(); n != last && (n > last) != grow {
					t.Errorf("Len went %d -> %d (growing %v)", last, n, grow)
				} else {
					last = n
				}
				reader()
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				write(w)
			}(w)
		}
		wg.Wait()
		close(stop)
		<-done
	}

	// Restoring a high id first moves the id allocator above it, so the
	// restored ids below it never collide with a created one.
	const high = TreeID(1 << 40)
	if _, _, err := f.Restore(high, snap); err != nil || !f.Drop(high) {
		t.Fatalf("Restore(%d): %v", high, err)
	}

	// Growing: every writer creates and restores trees.
	ids := make([][]TreeID, writers)
	race(true, func(w int) {
		for i := 0; i < rounds; i++ {
			id, _ := f.Create(ring, int64(i))
			served(id, int64(i))
			rid := high - 1 - TreeID(w*rounds+i)
			if _, _, err := f.Restore(rid, snap); err != nil {
				t.Errorf("Restore(%d): %v", rid, err)
				return
			}
			served(rid, 5)
			if _, _, err := f.Restore(rid, snap); !errors.Is(err, engine.ErrTreeExists) {
				t.Errorf("second Restore(%d) = %v, want ErrTreeExists", rid, err)
			}
			ids[w] = append(ids[w], id, rid)
		}
	}, func() {
		f.Each(func(id TreeID, _ *Engine) {
			if _, ok := f.Get(id); !ok {
				t.Errorf("Each passed tree %d, which Get misses", id)
			}
		})
		res, err := f.Query(ForestQuery{Read: ReadRoot(), Detail: true})
		if err != nil {
			t.Errorf("Query(QueryAll): %v", err)
			return
		}
		for _, d := range res.Detail {
			if d.Err != nil {
				t.Errorf("tree %d: %v", d.Tree, d.Err)
			} else if _, ok := f.Get(d.Tree); !ok {
				t.Errorf("Query answered for tree %d, which Get misses", d.Tree)
			}
		}
	})
	if n := f.Len(); n != 2*writers*rounds {
		t.Fatalf("Len = %d, want %d", n, 2*writers*rounds)
	}

	// Shrinking: every writer drops its trees.
	race(false, func(w int) {
		for _, id := range ids[w] {
			if !f.Drop(id) {
				t.Errorf("Drop(%d) missed a served tree", id)
			}
			gone(id)
		}
	}, func() {
		for _, own := range ids {
			for _, id := range own {
				if _, ok := f.Get(id); ok {
					continue
				}
				res, err := f.Query(ForestQuery{Select: QueryIDs(id), Read: ReadRoot(), Detail: true})
				if err != nil || !errors.Is(res.Detail[0].Err, ErrQueryNoTree) {
					t.Errorf("Get misses tree %d, but Query answered %+v, %v", id, res, err)
				}
			}
		}
	})

	if n := f.Len(); n != 0 {
		t.Fatalf("Len = %d after every tree was dropped", n)
	}
	if id, _ := f.Create(ring, 1); id <= high {
		t.Fatalf("Create after Restore(%d) handed out id %d", high, id)
	}
}
