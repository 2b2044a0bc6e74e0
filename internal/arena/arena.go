// Package arena holds values of one type by value in fixed chunks that
// never move, named by int32 IDs. It is the storage under both churning
// structures of the contraction: the splitting tree's nodes (rbsts) and
// the rake trace's records (core). Holding them by value in a few large
// chunks keeps them out of the collector's way, and naming them by ID lets
// the structures link their values with int32s rather than pointers.
//
// ID 0 names none: it is never handed out, so a zeroed link or a zeroed
// value links to nothing. A pointer from At stays valid while the arena
// grows, since growing adds a chunk and copies nothing. Every value not
// handed out is zero, so Alloc returns a blank one.
//
// Release is deferred: a released ID keeps its value, readable, and is
// not handed out again until the owner calls Recycle, which zeroes it and
// puts it on the free list. So an owner can release values in the middle
// of a call that still reads them. Alloc pops the free list, last in
// first out, before it hands out a fresh ID.
package arena

// chunkBits sizes the chunks (1 024 values): a power of two, so resolving
// an ID is a shift and a mask.
const chunkBits = 10

// ChunkLen is the number of values one chunk holds.
const ChunkLen = 1 << chunkBits

// Arena holds values of type T named by IDs of type I. The zero value is
// an empty arena.
type Arena[T any, I ~int32] struct {
	chunks [][]T
	// used counts the IDs handed out so far, 0 not included: the next
	// fresh ID is used+1.
	used    I
	free    []I // recycled IDs, handed out again last in first out
	pending []I // released IDs, joining free at the next Recycle
}

// At returns the value named id, which must have been handed out.
func (a *Arena[T, I]) At(id I) *T {
	return &a.chunks[id>>chunkBits][id&(ChunkLen-1)]
}

// Get resolves a link: nil for none.
func (a *Arena[T, I]) Get(id I) *T {
	if id == 0 {
		return nil
	}
	return a.At(id)
}

// Alloc hands out a blank value and its ID: the last one recycled if
// any, else a fresh ID, adding a chunk when the last one is full.
func (a *Arena[T, I]) Alloc() (I, *T) {
	var id I
	if k := len(a.free); k > 0 {
		id = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		a.used++
		id = a.used
		if int(id)>>chunkBits == len(a.chunks) {
			a.chunks = append(a.chunks, make([]T, ChunkLen))
		}
	}
	return id, a.At(id)
}

// Release gives id back. Its value stays as the owner left it until the
// next Recycle, and no Alloc hands it out before then.
func (a *Arena[T, I]) Release(id I) { a.pending = append(a.pending, id) }

// Recycle zeroes every value released since the last Recycle and puts
// their IDs on the free list, in the order they were released.
func (a *Arena[T, I]) Recycle() {
	var zero T
	for _, id := range a.pending {
		*a.At(id) = zero
	}
	a.free = append(a.free, a.pending...)
	a.pending = a.pending[:0]
}

// Reset takes every ID back, released ones included: the next Alloc
// hands out 1 again. It keeps the chunks that keep values (the number
// about to be allocated) fill and gives the rest back, so an owner that
// shrank does not hold its peak.
func (a *Arena[T, I]) Reset(keep int) {
	n := min(len(a.chunks), keep>>chunkBits+1)
	for i, ch := range a.chunks[:n] {
		if i<<chunkBits > int(a.used) {
			break
		}
		clear(ch)
	}
	clear(a.chunks[n:])
	a.chunks = a.chunks[:n]
	a.used = 0
	a.free, a.pending = a.free[:0], a.pending[:0]
}

// End returns the first ID never handed out: every ID handed out lies in
// [1, End()).
func (a *Arena[T, I]) End() I { return a.used + 1 }

// Chunks returns the number of chunks the arena holds.
func (a *Arena[T, I]) Chunks() int { return len(a.chunks) }

// Unused returns the IDs not in use: those on the free list and those
// released since the last Recycle. The slices are the arena's own and are
// valid until its next call; the caller must not change them.
func (a *Arena[T, I]) Unused() (free, pending []I) { return a.free, a.pending }
