package core

// Pool-execution oracle: the same contraction driven on a pool-parallel
// machine (small grain, so even tiny rounds dispatch to the workers) must
// produce identical root values, identical per-node values AND identical
// PRAM Metrics to the sequential machine — metering is a function of the
// algorithm, never of the execution backend. Run with -race: every Step
// body in the batch path executes concurrently here.

import (
	"testing"

	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// driveBatches runs a deterministic program of grow/collapse/set batches
// and returns the sequence of observed root values.
func driveBatches(t *testing.T, seed uint64, m *pram.Machine) []int64 {
	t.Helper()
	ring := semiring.NewMod(1_000_000_007)
	tr := tree.New(ring, 1)
	c := New(tr, seed, m)
	rng := prng.New(seed * 977)

	var roots []int64
	leaves := []*tree.Node{tr.Root}
	// Grow out to a few hundred leaves in doubling batches.
	for len(leaves) < 300 {
		ops := make([]AddOp, 0, len(leaves))
		for _, l := range leaves {
			op := semiring.OpAdd(ring)
			if rng.Intn(2) == 0 {
				op = semiring.OpMul(ring)
			}
			ops = append(ops, AddOp{Leaf: l, Op: op,
				LeftVal: int64(rng.Intn(1000)), RightVal: int64(rng.Intn(1000))})
		}
		pairs := c.AddLeaves(ops)
		next := make([]*tree.Node, 0, 2*len(pairs))
		for _, p := range pairs {
			next = append(next, p[0], p[1])
		}
		leaves = next
		roots = append(roots, c.RootValue())
	}
	// Batched relabels.
	for round := 0; round < 5; round++ {
		k := len(leaves) / 3
		ls := make([]*tree.Node, k)
		vs := make([]int64, k)
		for i := 0; i < k; i++ {
			ls[i] = leaves[(i*3+round)%len(leaves)]
			vs[i] = int64(rng.Intn(100000))
		}
		c.SetValues(ls, vs)
		roots = append(roots, c.RootValue())
	}
	// Batched collapses of sibling pairs (leaves came from AddLeaves in
	// (left, right) pairs sharing a parent).
	ops := make([]RemoveOp, 0, len(leaves)/2)
	for i := 0; i+1 < len(leaves); i += 2 {
		p := leaves[i].Parent
		if p != nil && p.Left == leaves[i] && p.Right == leaves[i+1] {
			ops = append(ops, RemoveOp{Node: p, NewValue: int64(rng.Intn(1000))})
		}
	}
	c.RemoveLeaves(ops)
	roots = append(roots, c.RootValue())
	if err := c.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return roots
}

func TestPoolExecutionMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seqM := pram.Sequential()
		seqRoots := driveBatches(t, seed, seqM)

		parM := pram.New(4)
		parM.SetGrain(8) // force pool execution even for tiny rounds
		parRoots := driveBatches(t, seed, parM)

		if len(seqRoots) != len(parRoots) {
			t.Fatalf("seed %d: %d sequential roots vs %d parallel", seed, len(seqRoots), len(parRoots))
		}
		for i := range seqRoots {
			if seqRoots[i] != parRoots[i] {
				t.Fatalf("seed %d: root %d differs: sequential %d, pool %d",
					seed, i, seqRoots[i], parRoots[i])
			}
		}
		if sm, pm := seqM.Metrics(), parM.Metrics(); sm != pm {
			t.Fatalf("seed %d: metrics differ: sequential %+v, pool %+v", seed, sm, pm)
		}
	}
}
