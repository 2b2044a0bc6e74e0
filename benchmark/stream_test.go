package main

import (
	"maps"
	"slices"
	"testing"

	"dyntc/internal/tree"
)

func quickConfig(workload string) config {
	return config{workload: workload, seed: 7, seconds: 1, quick: true, nproc: 2, outDir: "out"}
}

// The generators predict the tree's shape without looking at it: after any
// number of waves the model's leaf and cherry sets must be the tree's.
func TestModelTracksTree(t *testing.T) {
	tr := genTree(3, 512, tree.ShapeRandom)
	g := newChurnGen(3, tr, 32)
	be := &treeBackend{trees: []*tree.Tree{tr}}
	for c := 0; c < 3; c++ {
		for _, r := range g.cycle() {
			be.apply(&r)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		want := newModel(tr)
		for name, pair := range map[string][2]idSet{
			"leaves":    {g.m.leaves, want.leaves},
			"cherries":  {g.m.cherries, want.cherries},
			"internals": {g.m.internals, want.internals},
		} {
			got, exp := slices.Sorted(slices.Values(pair[0].ids)), slices.Sorted(slices.Values(pair[1].ids))
			if !slices.Equal(got, exp) {
				t.Fatalf("cycle %d: model's %s differ from the tree's (%d vs %d)", c, name, len(got), len(exp))
			}
		}
		if len(tr.Nodes) != len(g.m.parent) {
			t.Fatalf("cycle %d: model predicts %d node slots, tree has %d", c, len(g.m.parent), len(tr.Nodes))
		}
	}
}

// A serve-wal batch must touch pairwise disjoint nodes and end with its read.
func TestServeBatchesAreDisjoint(t *testing.T) {
	trees := []*tree.Tree{genTree(1, 256, tree.ShapeRandom), genTree(2, 256, tree.ShapeRandom)}
	g := newServeGen(5, 0, []int{0, 1}, trees)
	be := &treeBackend{trees: trees}
	for i := 0; i < 400; i++ {
		r := g.next()
		if r.tree < 0 {
			continue
		}
		tr := trees[r.tree]
		seen := map[int32]bool{}
		touch := func(id int32) {
			if seen[id] {
				t.Fatalf("request %d touches node %d twice", i, id)
			}
			seen[id] = true
		}
		for _, o := range r.ops[:len(r.ops)-1] {
			touch(o.node)
			if o.kind == opCollapse {
				n := tr.Nodes[o.node]
				touch(int32(n.Left.ID))
				touch(int32(n.Right.ID))
			}
		}
		if last := r.ops[len(r.ops)-1]; last.kind != opValue {
			t.Fatalf("request %d ends with op kind %d, want the value read", i, last.kind)
		}
		be.apply(&r) // panics if an op is invalid for the tree
	}
}

// Same seed ⇒ same stream and, in the traced run, bit-identical exact
// counters (pram.*, core.records_per_wave, rbsts.rebuild_leaves_per_op).
func TestSameSeedSameStreamAndCounters(t *testing.T) {
	for _, name := range []string{"struct-64k", "label-path-64k", "engine-pipe"} {
		cfg := quickConfig(name)
		cfg.trace = true
		var first map[string]string
		for run := 0; run < 2; run++ {
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.exact["stream_hash"] == "" || res.exact["counters"] == "" {
				t.Fatalf("%s: traced run reported no exact values: %v", name, res.exact)
			}
			if first == nil {
				first = res.exact
			} else if !maps.Equal(first, res.exact) {
				t.Fatalf("%s: exact values differ between two runs of one seed:\n%v\n%v", name, first, res.exact)
			}
		}
		cfg.seed++
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.exact["stream_hash"] == first["stream_hash"] {
			t.Fatalf("%s: another seed produced the same stream", name)
		}
	}
}
