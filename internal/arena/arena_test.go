package arena

import (
	"slices"
	"testing"
)

type item struct{ a, b int64 }

type itemArena = Arena[item, int32]

// allocN hands out n items, each marked with its own ID.
func allocN(a *itemArena, n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		id, v := a.Alloc()
		v.a = int64(id)
		ids[i] = id
	}
	return ids
}

// TestZeroIDNeverHandedOut: the first ID is 1 and no later one, fresh or
// recycled, is 0; Get of 0 is nil.
func TestZeroIDNeverHandedOut(t *testing.T) {
	var a itemArena
	if a.Get(0) != nil {
		t.Fatal("Get(0) is not nil")
	}
	ids := allocN(&a, 3*ChunkLen)
	if ids[0] != 1 {
		t.Fatalf("first ID %d, want 1", ids[0])
	}
	for _, id := range ids[:ChunkLen] {
		a.Release(id)
	}
	a.Recycle()
	for _, id := range allocN(&a, 2*ChunkLen) {
		if id == 0 {
			t.Fatal("ID 0 handed out")
		}
	}
	if got, want := a.End(), int32(3*ChunkLen+ChunkLen+1); got != want {
		t.Fatalf("End %d, want %d", got, want)
	}
}

// TestReuseIsLIFO: recycled IDs come back last released first, before
// any fresh ID.
func TestReuseIsLIFO(t *testing.T) {
	var a itemArena
	allocN(&a, 10)
	for _, id := range []int32{3, 7, 5} {
		a.Release(id)
	}
	a.Recycle()
	a.Release(9)
	a.Recycle()
	got := allocN(&a, 5)
	if want := []int32{9, 5, 7, 3, 11}; !slices.Equal(got, want) {
		t.Fatalf("handed out %v, want %v", got, want)
	}
}

// TestReleaseDefersReuse: a released ID keeps its value and is not handed
// out again until Recycle, which zeroes it; Unused reports it as pending
// and then as free.
func TestReleaseDefersReuse(t *testing.T) {
	var a itemArena
	ids := allocN(&a, 4)
	a.At(ids[1]).b = 42
	a.Release(ids[1])
	if free, pending := a.Unused(); len(free) != 0 || !slices.Equal(pending, []int32{ids[1]}) {
		t.Fatalf("Unused = %v, %v before Recycle", free, pending)
	}
	if id, _ := a.Alloc(); id != 5 {
		t.Fatalf("Alloc before Recycle handed out %d, want fresh 5", id)
	}
	if v := a.At(ids[1]); *v != (item{int64(ids[1]), 42}) {
		t.Fatalf("released value changed to %+v before Recycle", *v)
	}
	a.Recycle()
	if *a.At(ids[1]) != (item{}) {
		t.Fatal("Recycle did not zero the value")
	}
	if free, pending := a.Unused(); !slices.Equal(free, []int32{ids[1]}) || len(pending) != 0 {
		t.Fatalf("Unused = %v, %v after Recycle", free, pending)
	}
	id, v := a.Alloc()
	if id != ids[1] || *v != (item{}) {
		t.Fatalf("Alloc after Recycle handed out %d holding %+v, want blank %d", id, *v, ids[1])
	}
}

// TestPointersSurviveGrowth: a pointer from At still names the arena's
// value after the arena grew across many chunk boundaries.
func TestPointersSurviveGrowth(t *testing.T) {
	var a itemArena
	ids := allocN(&a, ChunkLen+1)
	first, edge := a.At(ids[0]), a.At(ids[ChunkLen-1])
	allocN(&a, 4*ChunkLen)
	first.b, edge.b = 1, 2
	if a.At(ids[0]).b != 1 || a.At(ids[ChunkLen-1]).b != 2 {
		t.Fatal("a pointer from At no longer names the arena's value")
	}
	for _, id := range ids {
		if a.At(id).a != int64(id) {
			t.Fatalf("value %d moved or changed", id)
		}
	}
	// ID 0 takes the first slot, so 5 chunks' worth plus one needs 6.
	if got := a.Chunks(); got != 6 {
		t.Fatalf("%d chunks for %d values, want 6", got, a.End()-1)
	}
}

// TestResetKeepsOnlyNeededChunks: Reset(keep) keeps the chunks keep
// values fill, drops the rest from the backing array too, takes every ID
// back (released ones included) and hands out a blank 1 next.
func TestResetKeepsOnlyNeededChunks(t *testing.T) {
	var a itemArena
	allocN(&a, 8*ChunkLen-1)
	a.Release(3)
	a.Recycle()
	a.Release(4)
	a.Reset(ChunkLen - 1)
	if got := a.Chunks(); got != 1 {
		t.Fatalf("%d chunks kept for %d values, want 1", got, ChunkLen-1)
	}
	for i, ch := range a.chunks[:cap(a.chunks)][1:] {
		if ch != nil {
			t.Fatalf("dropped chunk %d still referenced", i+1)
		}
	}
	if free, pending := a.Unused(); len(free)+len(pending) != 0 {
		t.Fatalf("Reset kept unused IDs %v, %v", free, pending)
	}
	if a.End() != 1 {
		t.Fatalf("End %d after Reset, want 1", a.End())
	}
	id, v := a.Alloc()
	if id != 1 || *v != (item{}) {
		t.Fatalf("Alloc after Reset handed out %d holding %+v, want blank 1", id, *v)
	}
	// keep counts the values about to be allocated: ID keep itself must
	// fit, so a full first chunk plus one more value needs a second.
	allocN(&a, 3*ChunkLen)
	a.Reset(ChunkLen)
	if got := a.Chunks(); got != 2 {
		t.Fatalf("%d chunks kept for %d values, want 2", got, ChunkLen)
	}
	for _, ch := range a.chunks {
		if slices.ContainsFunc(ch, func(v item) bool { return v != item{} }) {
			t.Fatal("a kept chunk holds a value after Reset")
		}
	}
}
