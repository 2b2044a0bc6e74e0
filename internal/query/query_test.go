package query

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dyntc/internal/semiring"
)

// fakeReader serves synthetic trees: value = 10*id, seq = id, with a
// configurable error set. Start resolves immediately (the planner's
// scatter/gather mechanics are what is under test, not engine futures).
type fakeReader struct {
	ids    []uint64
	failOn map[uint64]error
	starts atomic.Int64
}

func (r *fakeReader) Trees() []uint64 { return r.ids }

type fakeHandle struct {
	v   int64
	seq uint64
	err error
}

func (h fakeHandle) Wait() (int64, uint64, error) { return h.v, h.seq, h.err }

func (r *fakeReader) Start(id uint64, _ Read) Handle {
	r.starts.Add(1)
	served := false
	for _, s := range r.ids {
		if s == id {
			served = true
			break
		}
	}
	if !served {
		return nil
	}
	if err := r.failOn[id]; err != nil {
		return fakeHandle{err: err}
	}
	return fakeHandle{v: int64(10 * id), seq: id}
}

func ids(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func TestPlannerCombiners(t *testing.T) {
	p := NewPlanner(4, nil)
	r := &fakeReader{ids: ids(100)}

	// sum of 10*(1..100) = 10*5050
	res, err := p.Run(r, Spec{Read: Root(), Combine: Sum(), Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined != 50500 || res.Trees != 100 || res.Errors != 0 {
		t.Fatalf("sum: got %+v", res)
	}
	if len(res.Detail) != 100 {
		t.Fatalf("detail: %d entries", len(res.Detail))
	}
	for i, tr := range res.Detail {
		if tr.Tree != uint64(i+1) || tr.Value != int64(10*(i+1)) || tr.Seq != uint64(i+1) || tr.Err != nil {
			t.Fatalf("detail[%d] = %+v", i, tr)
		}
	}

	for _, tc := range []struct {
		name string
		c    Combiner
		want int64
	}{
		{"min", Min(), 10},
		{"max", Max(), 1000},
		{"count", Count(), 100},
		{"ring-add", RingAdd(semiring.NewMod(97)), 50500 % 97},
	} {
		res, err := p.Run(r, Spec{Read: Root(), Combine: tc.c})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Combined != tc.want {
			t.Fatalf("%s: combined %d, want %d", tc.name, res.Combined, tc.want)
		}
	}

	// Ring product over a small explicit set: 10*20*30 mod 97.
	res, err = p.Run(r, Spec{Select: IDs(1, 2, 3), Read: Root(), Combine: RingMul(semiring.NewMod(97))})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10 * 20 * 30 % 97); res.Combined != want {
		t.Fatalf("ring-mul: combined %d, want %d", res.Combined, want)
	}
}

func TestPlannerSelectors(t *testing.T) {
	p := NewPlanner(3, nil)
	r := &fakeReader{ids: ids(50)}

	res, err := p.Run(r, Spec{Select: Range(10, 19), Read: Root(), Combine: Count()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined != 10 || res.Trees != 10 {
		t.Fatalf("range: %+v", res)
	}

	// Explicit ids preserve order and surface missing trees per tree.
	res, err = p.Run(r, Spec{Select: IDs(7, 999, 3), Read: Root(), Combine: Sum(), Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 2 || res.Errors != 1 || res.Combined != 100 {
		t.Fatalf("ids: %+v", res)
	}
	if res.Detail[0].Tree != 7 || res.Detail[1].Tree != 999 || res.Detail[2].Tree != 3 {
		t.Fatalf("ids order: %+v", res.Detail)
	}
	if !errors.Is(res.Detail[1].Err, ErrNoTree) {
		t.Fatalf("missing tree err: %v", res.Detail[1].Err)
	}

	// Empty selection: identity, no error.
	res, err = p.Run(r, Spec{Select: Range(200, 300), Read: Root(), Combine: Min()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 0 || res.Combined != math.MaxInt64 {
		t.Fatalf("empty: %+v", res)
	}
}

func TestPlannerErrorsAndValidation(t *testing.T) {
	p := NewPlanner(2, nil)
	boom := fmt.Errorf("boom")
	r := &fakeReader{ids: ids(10), failOn: map[uint64]error{4: boom, 8: boom}}

	res, err := p.Run(r, Spec{Read: Root(), Combine: Count()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 8 || res.Errors != 2 || res.Combined != 8 {
		t.Fatalf("errors: %+v", res)
	}

	for _, bad := range []Spec{
		{Read: Read{Kind: 42}, Combine: Sum()},
		{Read: Value(-1), Combine: Sum()},
		{Read: Root(), Combine: Combiner{Kind: CombineRingAdd}}, // no ring
		{Select: Range(9, 3), Read: Root(), Combine: Sum()},
		{Select: Range(9, 0), Read: Root(), Combine: Sum()}, // lower bound, no upper
	} {
		if _, err := p.Run(r, bad); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("spec %+v: err %v, want ErrBadSpec", bad, err)
		}
	}
}

// TestPlannerUnalignedChunks pins the chunking math: id counts that do
// not divide evenly across the chunks (e.g. 9 ids on 8 workers, where ceil
// division would produce empty trailing chunks) must still visit every
// tree exactly once.
func TestPlannerUnalignedChunks(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 8, 16} {
		p := NewPlanner(workers, nil)
		for _, n := range []int{1, 2, 5, 8, 9, 13, 31, 100} {
			r := &fakeReader{ids: ids(n)}
			res, err := p.Run(r, Spec{Read: Root(), Combine: Count(), Detail: true})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if res.Trees != n || len(res.Detail) != n {
				t.Fatalf("workers=%d n=%d: %+v", workers, n, res)
			}
		}
	}
}

func TestPlannerManyChunksOneWorker(t *testing.T) {
	p := NewPlanner(1, nil)
	r := &fakeReader{ids: ids(257)}
	res, err := p.Run(r, Spec{Read: Root(), Combine: Count()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 257 {
		t.Fatalf("one worker: %+v", res)
	}
	if got := r.starts.Load(); got != 257 {
		t.Fatalf("starts: %d", got)
	}
}
