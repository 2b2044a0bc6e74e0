package dyntc_test

import (
	"errors"
	"testing"

	"dyntc"
)

// buildQueryForest creates n single-tree engines with root values 1..n
// over the mod ring, growing tree i by i extra leaf pairs so trees differ
// structurally too.
func buildQueryForest(t *testing.T, n int, opts dyntc.BatchOptions, tour bool) (*dyntc.Forest, []dyntc.TreeID) {
	t.Helper()
	f := dyntc.NewForest(opts)
	ring := dyntc.ModRing(1_000_000_007)
	ids := make([]dyntc.TreeID, 0, n)
	for i := 1; i <= n; i++ {
		var exprOpts []dyntc.Option
		if tour {
			exprOpts = append(exprOpts, dyntc.WithTour())
		}
		id, en := f.Create(ring, int64(i), exprOpts...)
		ids = append(ids, id)
		// A couple of structural waves so applied seqs are non-trivial.
		for j := 0; j < i%3; j++ {
			if _, _, err := en.GrowIDAsync(0, dyntc.OpAdd(ring), 0, 0).Pair(); err != nil {
				t.Fatalf("tree %d grow: %v", id, err)
			}
			if err := en.CollapseIDAsync(0, int64(i)).Wait(); err != nil {
				t.Fatalf("tree %d collapse: %v", id, err)
			}
		}
	}
	return f, ids
}

func TestForestQuerySumOverForest(t *testing.T) {
	const n = 64
	f, ids := buildQueryForest(t, n, dyntc.BatchOptions{}, false)
	defer f.Close()

	res, err := f.Query(dyntc.ForestQuery{
		Select:  dyntc.QueryAll(),
		Read:    dyntc.ReadRoot(),
		Combine: dyntc.CombineSum(),
		Detail:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * (n + 1) / 2) // roots are 1..n
	if res.Combined != want || res.Trees != n || res.Errors != 0 {
		t.Fatalf("sum: got %+v, want combined %d over %d trees", res, want, n)
	}
	if len(res.Detail) != n {
		t.Fatalf("detail has %d entries", len(res.Detail))
	}
	for _, tr := range res.Detail {
		en, ok := f.Get(tr.Tree)
		if !ok {
			t.Fatalf("detail names unknown tree %d", tr.Tree)
		}
		// Quiescent forest: the reported seq is the engine's applied seq.
		if tr.Seq != en.AppliedSeq() {
			t.Fatalf("tree %d: reported seq %d, engine at %d", tr.Tree, tr.Seq, en.AppliedSeq())
		}
	}

	// Min / max / count over an explicit subset.
	sub := ids[:10]
	res, err = f.Query(dyntc.ForestQuery{
		Select:  dyntc.QueryIDs(sub...),
		Read:    dyntc.ReadRoot(),
		Combine: dyntc.CombineMax(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined != 10 {
		t.Fatalf("max over first 10: %d", res.Combined)
	}

	// Range selector.
	res, err = f.Query(dyntc.ForestQuery{
		Select:  dyntc.QueryRange(ids[0], ids[0]+4),
		Read:    dyntc.ReadRoot(),
		Combine: dyntc.CombineCount(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined != 5 {
		t.Fatalf("range count: %d", res.Combined)
	}
}

func TestForestQueryNodeAndSubtreeReads(t *testing.T) {
	f, ids := buildQueryForest(t, 8, dyntc.BatchOptions{}, true)
	defer f.Close()

	// Node 0 is every tree's root node: value read at 0 equals root read.
	rv, err := f.Query(dyntc.ForestQuery{Read: dyntc.ReadValue(0), Combine: dyntc.CombineSum()})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := f.Query(dyntc.ForestQuery{Read: dyntc.ReadRoot(), Combine: dyntc.CombineSum()})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Combined != rr.Combined {
		t.Fatalf("value(0) sum %d != root sum %d", rv.Combined, rr.Combined)
	}

	// Subtree size at the root counts every live node.
	res, err := f.Query(dyntc.ForestQuery{Read: dyntc.ReadSubtreeSize(0), Combine: dyntc.CombineSum(), Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, id := range ids {
		en, _ := f.Get(id)
		if qerr := en.Query(func(e *dyntc.Expr) { want += int64(e.Tree().Len()) }); qerr != nil {
			t.Fatal(qerr)
		}
	}
	if res.Combined != want || res.Errors != 0 {
		t.Fatalf("subtree sum: %+v, want %d", res, want)
	}
}

func TestForestQueryErrors(t *testing.T) {
	f, ids := buildQueryForest(t, 4, dyntc.BatchOptions{}, false)
	defer f.Close()

	// Subtree read without tour: per-tree ErrQueryNoTour, query itself ok.
	res, err := f.Query(dyntc.ForestQuery{Read: dyntc.ReadSubtreeSize(0), Combine: dyntc.CombineSum(), Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 || res.Trees != 0 {
		t.Fatalf("no-tour: %+v", res)
	}
	if !errors.Is(res.Detail[0].Err, dyntc.ErrQueryNoTour) {
		t.Fatalf("no-tour err: %v", res.Detail[0].Err)
	}

	// Dead node id: per-tree error.
	res, err = f.Query(dyntc.ForestQuery{Read: dyntc.ReadValue(1 << 20), Combine: dyntc.CombineSum()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 {
		t.Fatalf("dead node: %+v", res)
	}

	// Unknown tree id: per-tree ErrQueryNoTree.
	res, err = f.Query(dyntc.ForestQuery{
		Select:  dyntc.QueryIDs(ids[0], 1<<40),
		Read:    dyntc.ReadRoot(),
		Combine: dyntc.CombineSum(),
		Detail:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 1 || res.Errors != 1 || !errors.Is(res.Detail[1].Err, dyntc.ErrQueryNoTree) {
		t.Fatalf("unknown id: %+v", res)
	}
}

func TestQueryRingCombine(t *testing.T) {
	ring := dyntc.ModRing(97)
	f := dyntc.NewForest(dyntc.BatchOptions{})
	defer f.Close()
	var product int64 = 1
	for i := 2; i <= 9; i++ {
		f.Create(ring, int64(i))
		product = product * int64(i) % 97
	}
	res, err := f.Query(dyntc.ForestQuery{Read: dyntc.ReadRoot(), Combine: dyntc.CombineRingMul(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined != product {
		t.Fatalf("ring product: %d, want %d", res.Combined, product)
	}
}
