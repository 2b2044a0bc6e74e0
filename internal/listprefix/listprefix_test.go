package listprefix

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
)

func intList(seed uint64, n int) *List[int64] {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	return New(seed, SumInt64(), vals)
}

func TestPrefixAtMatchesNaive(t *testing.T) {
	l := intList(1, 100)
	var acc int64
	for i, e := 0, l.Head(); e != nil; i, e = i+1, e.Next() {
		acc += e.Payload()
		if got := l.PrefixAt(e); got != acc {
			t.Fatalf("prefix at %d = %d, want %d", i, got, acc)
		}
	}
}

func TestBatchPrefixMatchesSequential(t *testing.T) {
	src := prng.New(2)
	for _, n := range []int{1, 2, 3, 17, 256, 2048} {
		l := intList(uint64(n), n)
		for _, u := range []int{1, 2, 7, 50} {
			if u > n {
				continue
			}
			var elems []*Elem[int64]
			for i := 0; i < u; i++ {
				elems = append(elems, l.At(src.Intn(n)))
			}
			m := pram.Sequential()
			got := l.BatchPrefix(m, elems)
			for i, e := range elems {
				if want := l.PrefixAt(e); got[i] != want {
					t.Fatalf("n=%d u=%d elem %d: batch %d want %d", n, u, i, got[i], want)
				}
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("flags leaked: %v", err)
			}
		}
	}
}

func TestBatchPrefixNonCommutative(t *testing.T) {
	// String concatenation is associative but not commutative: this
	// catches any ordering mistake in the Euler tour.
	concat := Monoid[string]{Identity: "", Combine: func(a, b string) string { return a + b }}
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	l := New(7, concat, words)
	var elems []*Elem[string]
	for e := l.Head(); e != nil; e = e.Next() {
		elems = append(elems, e)
	}
	got := l.BatchPrefix(pram.Sequential(), elems)
	for i := range got {
		want := strings.Join(words[:i+1], "")
		if got[i] != want {
			t.Fatalf("prefix %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestBatchPrefixParallelMachine(t *testing.T) {
	l := intList(5, 4096)
	var elems []*Elem[int64]
	for i := 0; i < 300; i++ {
		elems = append(elems, l.At((i*13)%4096))
	}
	m := pram.New(4)
	got := l.BatchPrefix(m, elems)
	for i, e := range elems {
		if want := l.PrefixAt(e); got[i] != want {
			t.Fatalf("elem %d: got %d want %d", i, got[i], want)
		}
	}
}

func TestBatchPrefixSpan(t *testing.T) {
	// Theorem 3.1: span O(log(|U| log n)), not Θ(|U|·depth). With n = 2^16
	// a batch of |U| random elements activates a parse tree of ≲ |U|·60
	// nodes and prefixes it by pointer jumping. Measured 28/35/42 rounds
	// at |U| = 1/16/256, 7.0/4.4/3.5× log2(|U|·log2 n) (activation's
	// additive constant dominates at |U| = 1); c = 10 leaves ≥ 1.4×
	// headroom.
	const n = 1 << 16
	l := intList(11, n)
	src := prng.New(13)
	for _, u := range []int{1, 16, 256} {
		var elems []*Elem[int64]
		seen := map[int]bool{}
		for len(elems) < u {
			if i := src.Intn(n); !seen[i] {
				seen[i] = true
				elems = append(elems, l.At(i))
			}
		}
		m := pram.Sequential()
		l.BatchPrefix(m, elems)
		bound := 10 * math.Log2(float64(u)*math.Log2(n))
		steps := m.Metrics().Steps
		t.Logf("|U|=%d: %d rounds (bound %.1f)", u, steps, bound)
		if float64(steps) > bound {
			t.Fatalf("|U|=%d: batch prefix used %d rounds > 10·log2(|U|·log2 n) = %.1f", u, steps, bound)
		}
	}
}

func TestUpdateAndPrefix(t *testing.T) {
	l := intList(3, 50)
	e := l.At(25)
	l.Update(e, 1000)
	if got := l.PrefixAt(l.At(49)); got != 50*51/2-26+1000 {
		t.Fatalf("total after update = %d", got)
	}
	if got := l.Total(); got != 50*51/2-26+1000 {
		t.Fatalf("Total = %d", got)
	}
}

func TestBatchUpdate(t *testing.T) {
	l := intList(3, 128)
	m := pram.Sequential()
	elems := []*Elem[int64]{l.At(0), l.At(64), l.At(127)}
	l.BatchUpdate(m, elems, []int64{0, 0, 0})
	want := int64(128*129/2) - 1 - 65 - 128
	if got := l.Total(); got != want {
		t.Fatalf("Total = %d want %d", got, want)
	}
}

func TestInsertDeleteMaintainPrefix(t *testing.T) {
	l := intList(9, 10)
	e5 := l.At(5)
	l.Insert(nil, e5, []int64{100, 200})
	l.Delete(nil, []*Elem[int64]{l.At(0)})
	// List now: 2,3,4,5,6,100,200,7,8,9,10
	wantVals := []int64{2, 3, 4, 5, 6, 100, 200, 7, 8, 9, 10}
	got := l.Values()
	if fmt.Sprint(got) != fmt.Sprint(wantVals) {
		t.Fatalf("values %v want %v", got, wantVals)
	}
	var acc int64
	for i, e := 0, l.Head(); e != nil; i, e = i+1, e.Next() {
		acc += e.Payload()
		if p := l.PrefixAt(e); p != acc {
			t.Fatalf("prefix at %d = %d want %d", i, p, acc)
		}
	}
}

func TestRangeSum(t *testing.T) {
	l := intList(13, 64)
	f := func(a, b uint8) bool {
		i, j := int(a)%64, int(b)%64
		if i > j {
			i, j = j, i
		}
		var want int64
		for k := i; k <= j; k++ {
			want += int64(k + 1)
		}
		return l.RangeSum(l.At(i), l.At(j)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSumReversedPanics(t *testing.T) {
	l := intList(13, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.RangeSum(l.At(5), l.At(2))
}

func TestSearchPrefix(t *testing.T) {
	l := intList(17, 100) // prefix at i = (i+1)(i+2)/2
	for _, target := range []int64{1, 3, 4, 5000, 100 * 101 / 2} {
		e := l.SearchPrefix(func(v int64) bool { return v >= target })
		// Naive scan.
		var acc int64
		var want *Elem[int64]
		for x := l.Head(); x != nil; x = x.Next() {
			acc += x.Payload()
			if acc >= target {
				want = x
				break
			}
		}
		if e != want {
			t.Fatalf("target %d: got %v want %v", target, e, want)
		}
	}
	if l.SearchPrefix(func(v int64) bool { return v > 1<<40 }) != nil {
		t.Fatal("found unreachable prefix")
	}
}

func TestMinMonoid(t *testing.T) {
	vals := []int64{5, 3, 8, 1, 9, 2}
	l := New(19, MinInt64(), vals)
	if got := l.Total(); got != 1 {
		t.Fatalf("min total = %d", got)
	}
	if got := l.RangeSum(l.At(0), l.At(2)); got != 3 {
		t.Fatalf("range min = %d", got)
	}
	if got := l.RangeSum(l.At(4), l.At(5)); got != 2 {
		t.Fatalf("range min = %d", got)
	}
}

func TestQuickPrefixProperty(t *testing.T) {
	src := prng.New(23)
	f := func(seed uint64, raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r)
		}
		l := New(seed, SumInt64(), vals)
		i := src.Intn(len(vals))
		var want int64
		for k := 0; k <= i; k++ {
			want += vals[k]
		}
		return l.PrefixAt(l.At(i)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyList(t *testing.T) {
	l := New(1, SumInt64(), nil)
	if l.Len() != 0 {
		t.Fatal("not empty")
	}
	if got := l.Total(); got != 0 {
		t.Fatalf("Total = %d", got)
	}
	if out := l.BatchPrefix(nil, nil); len(out) != 0 {
		t.Fatal("BatchPrefix on empty")
	}
	if l.SearchPrefix(func(int64) bool { return true }) != nil {
		t.Fatal("SearchPrefix on empty")
	}
	elems := l.InsertAt(nil, 0, []int64{4, 5})
	if len(elems) != 2 || l.Total() != 9 {
		t.Fatal("insert into empty failed")
	}
}
