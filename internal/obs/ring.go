package obs

// ring is a bounded FIFO keeping the newest len(buf) values: add evicts
// the oldest once full. It backs the span log and the event journal,
// which each guard it with their own mutex, so ring itself is not locked.
type ring[T any] struct {
	buf   []T
	next  int    // next write slot
	n     int    // values retained
	added uint64 // values ever added, retained or evicted
}

// newRing creates a ring retaining up to capacity values (def when
// capacity <= 0).
func newRing[T any](capacity, def int) ring[T] {
	if capacity <= 0 {
		capacity = def
	}
	return ring[T]{buf: make([]T, capacity)}
}

// add appends v, evicting the oldest value when full.
func (r *ring[T]) add(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.added++
}

// at returns the i-th retained value, 0 being the oldest.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)]
}

// last returns up to n of the newest values, oldest first; n <= 0 means
// every retained value.
func (r *ring[T]) last(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.at(r.n - n + i)
	}
	return out
}

// filter returns every retained value keep accepts, oldest first.
func (r *ring[T]) filter(keep func(T) bool) []T {
	var out []T
	for i := 0; i < r.n; i++ {
		if v := r.at(i); keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// len returns the number of values retained.
func (r *ring[T]) len() int { return r.n }

// total returns the number of values ever added.
func (r *ring[T]) total() uint64 { return r.added }
