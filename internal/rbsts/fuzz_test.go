package rbsts

import (
	"fmt"
	"testing"
)

// Picks a delete entry of FuzzPTBatches' input can make besides a leaf
// index (any value >= 0).
const (
	ptNil   = -1 // a nil handle, which BatchDelete skips
	ptRoot  = -2 // the root: internal (skipped) unless the tree has one leaf
	ptStale = -3 // a leaf the previous call deleted, else another tree's
)

// ptIns encodes one BatchInsert call for FuzzPTBatches' decoder: each op
// is {gap, number of payloads}; a call carries 1–8 ops.
func ptIns(ops ...[2]int) []byte {
	b := []byte{byte(len(ops)-1) << 1}
	for _, op := range ops {
		b = append(b, byte(op[0]), byte(op[0]>>8), byte(op[1]))
	}
	return b
}

// ptDel encodes one BatchDelete call of 1–8 picks (a leaf index or one of
// the pt* constants).
func ptDel(picks ...int) []byte {
	b := []byte{byte(len(picks)-1)<<1 | 1}
	for _, p := range picks {
		switch p {
		case ptNil:
			b = append(b, 1, 0, 0)
		case ptRoot:
			b = append(b, 2, 0, 0)
		case ptStale:
			b = append(b, 3, 0, 0)
		default:
			b = append(b, 0, byte(p), byte(p>>8))
		}
	}
	return b
}

// ptScript concatenates a tree seed, an initial leaf count and calls.
func ptScript(seed, n byte, calls ...[]byte) []byte {
	b := []byte{seed, n}
	for _, c := range calls {
		b = append(b, c...)
	}
	return b
}

// FuzzPTBatches drives one tree through the BatchInsert and BatchDelete
// calls its input decodes to and checks each against a slice model of
// the leaf order: the payloads in order, the report's new leaves, the
// root sum, and Validate() after every call. A delete list may mix nil
// handles, internal nodes and repeats (skipped) with stale handles: a
// leaf the previous deletion removed, or a leaf of another tree. A list
// holding one must panic and leave the tree as it was. The seeds replay
// the package's insert and delete unit tests.
func FuzzPTBatches(f *testing.F) {
	for _, seed := range [][]byte{
		ptScript(31, 10, ptIns([2]int{5, 1})),                                          // TestInsertSingle
		ptScript(33, 5, ptIns([2]int{0, 1}), ptIns([2]int{6, 1})),                      // TestInsertAtEnds
		ptScript(35, 6, ptIns([2]int{4, 2}, [2]int{0, 1}, [2]int{6, 1}, [2]int{4, 1})), // TestBatchInsertMultipleGaps
		ptScript(37, 0, ptIns([2]int{0, 3})),                                           // TestInsertIntoEmpty
		ptScript(41, 10, ptDel(5)),                                                     // TestDeleteSingle
		ptScript(43, 8, ptDel(0), ptDel(6)),                                            // TestDeleteBoundaries
		ptScript(45, 6, ptDel(0, 1, 2, 3, 4, 5), ptIns([2]int{0, 2})),                  // TestDeleteAll
		ptScript(47, 4, ptDel(0, 1, 2), ptDel(0)),                                      // TestDeleteToSingleLeafAndBack
		ptScript(71, 10, ptDel(4), ptDel(0, ptStale), ptDel(0, ptStale)),               // TestDeleteStaleLeafPanics
		ptScript(72, 3, ptDel(ptStale)),                                                // its foreign leaf
		ptScript(9, 16, ptDel(3, 3, ptNil, ptRoot), ptIns([2]int{16, 3}, [2]int{0, 0}), ptDel(ptRoot)),
		ptScript(99, 32, ptIns([2]int{7, 3}, [2]int{7, 3}, [2]int{30, 2}), ptDel(1, 9, 17, 25, 33), ptDel(ptStale, 2)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runPTBatches(data); err != nil {
			t.Fatal(err)
		}
	})
}

// runPTBatches decodes data into a tree and up to 64 calls on it and
// checks each call against the model, returning the first mismatch.
func runPTBatches(data []byte) error {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	seed := uint64(next())
	tr := newIntTree(seed, next()%33)
	foreign := newIntTree(seed+1, 3)
	model := payloadsOf(tr)
	nextVal := int64(1000)
	// stale holds the leaves the previous call deleted: their handles
	// stay detectably stale until the next insertion or deletion, so the
	// call after that forgets them.
	var stale []*Node[int64, int64]
	check := func(call int) error {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("call %d: %v", call, err)
		}
		if got := payloadsOf(tr); fmt.Sprint(got) != fmt.Sprint(model) || tr.Len() != len(model) {
			return fmt.Errorf("call %d: leaves %v (len %d), model %v", call, got, tr.Len(), model)
		}
		if tr.Len() > 0 && tr.Root().Sum() != tr.SumOracle() {
			return fmt.Errorf("call %d: root sum %d, want %d", call, tr.Root().Sum(), tr.SumOracle())
		}
		return nil
	}
	if err := check(0); err != nil {
		return err
	}
	for call := 1; call <= 64 && len(data) > 0; call++ {
		c := next()
		n := (c>>1)%8 + 1
		if c&1 == 0 {
			ops := make([]InsertOp[int64], n)
			perGap := make([][]int64, len(model)+1)
			var want []int64
			for i := range ops {
				gap := (next() | next()<<8) % (len(model) + 1)
				ops[i].Gap = gap
				for k := next() % 4; k > 0; k-- {
					ops[i].Payloads = append(ops[i].Payloads, nextVal)
					perGap[gap] = append(perGap[gap], nextVal)
					want = append(want, nextVal)
					nextVal++
				}
			}
			rep := tr.BatchInsert(nil, ops)
			if fmt.Sprint(payloadsOfNodes(rep.NewLeaves)) != fmt.Sprint(want) {
				return fmt.Errorf("call %d: NewLeaves %v, want %v", call, payloadsOfNodes(rep.NewLeaves), want)
			}
			var grown []int64
			for g := range perGap {
				grown = append(grown, perGap[g]...)
				if g < len(model) {
					grown = append(grown, model[g])
				}
			}
			model = grown
			stale = stale[:0]
			if err := check(call); err != nil {
				return err
			}
			continue
		}
		leaves := tr.Leaves()
		var picks []*Node[int64, int64]
		gone := make(map[*Node[int64, int64]]bool)
		wantPanic := false
		for i := 0; i < n; i++ {
			sel, arg := next(), next()|next()<<8
			switch sel % 4 {
			case 1:
				picks = append(picks, nil)
			case 2:
				picks = append(picks, tr.Root())
				if r := tr.Root(); r != nil && r.IsLeaf() {
					gone[r] = true
				}
			case 3:
				wantPanic = true
				if len(stale) > 0 {
					picks = append(picks, stale[arg%len(stale)])
				} else {
					picks = append(picks, foreign.LeafAt(arg%foreign.Len()))
				}
			default:
				if len(leaves) == 0 {
					picks = append(picks, nil)
					continue
				}
				l := leaves[arg%len(leaves)]
				picks = append(picks, l)
				gone[l] = true
			}
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			tr.BatchDelete(nil, picks)
			return false
		}()
		if panicked != wantPanic {
			return fmt.Errorf("call %d: BatchDelete panicked=%v, want %v (picks %d, stale %d)", call, panicked, wantPanic, len(picks), len(stale))
		}
		stale = stale[:0]
		if !panicked {
			var kept []int64
			for i, l := range leaves {
				if gone[l] {
					stale = append(stale, l)
				} else {
					kept = append(kept, model[i])
				}
			}
			model = kept
		}
		if err := check(call); err != nil {
			return err
		}
	}
	return nil
}

// payloadsOfNodes lists the payloads of the given leaves.
func payloadsOfNodes(leaves []*Node[int64, int64]) []int64 {
	out := make([]int64, len(leaves))
	for i, l := range leaves {
		out[i] = l.Payload()
	}
	return out
}
