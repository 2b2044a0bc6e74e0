package core

import (
	"testing"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// fuzzRings are the rings a FuzzWaves input picks from: the twin
// oracle's, then the Boolean semiring.
var fuzzRings = append(append([]semiring.Ring(nil), twinRings...), semiring.Bool{})

// maxFuzzWaves bounds the waves one FuzzWaves input runs.
const maxFuzzWaves = 64

// ruleReach is the largest tree, in leaves, on which the size rule cannot
// fire: a wave's frontier holds at most the trace's leaves−1 records,
// which passes half the leaves plus 64 only past 130 leaves.
const ruleReach = 130

// fuzzBytes reads a FuzzWaves input: every read past the end is zero,
// so every input decodes.
type fuzzBytes struct {
	b []byte
	i int
}

func (r *fuzzBytes) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

func (r *fuzzBytes) done() bool { return r.i >= len(r.b) }

// fuzzTree decodes a FuzzWaves input's tree: a ring byte, a leaf count
// (2–64) and a shape byte, then a seed byte. Shapes 0–3 are
// tree.Generate's shapes grown from the seed; shape 4 grows the tree
// leaf by leaf, each grow expanding the leaf its byte picks (by index
// modulo the leaves, in order), so any shape can be spelled out.
func fuzzTree(in *fuzzBytes) (semiring.Ring, *tree.Tree, uint64) {
	ring := fuzzRings[in.next()%len(fuzzRings)]
	leaves := 2 + in.next()%63
	shape := in.next() % 5
	seed := uint64(in.next())
	if shape < len(allShapes) {
		return ring, tree.Generate(ring, prng.New(seed), leaves, allShapes[shape]), seed
	}
	tr := tree.New(ring, ring.Normalize(int64(seed)))
	for tr.LeafCount() < leaves {
		ls := tr.Leaves()
		tr.AddChildren(ls[in.next()%len(ls)], fuzzOp(ring, in.next()), ring.Normalize(int64(in.next())), ring.Normalize(int64(in.next())))
	}
	return ring, tr, seed
}

func fuzzOp(ring semiring.Ring, b int) semiring.Op {
	if b%2 == 1 {
		return semiring.OpMul(ring)
	}
	return semiring.OpAdd(ring)
}

// pickTargets draws k distinct entries of from, each by a byte taken
// modulo what is left.
func pickTargets(in *fuzzBytes, from []*tree.Node, k int) []*tree.Node {
	from = append([]*tree.Node(nil), from...)
	out := make([]*tree.Node, 0, k)
	for len(out) < k && len(from) > 0 {
		i := in.next() % len(from)
		out = append(out, from[i])
		from[i] = from[len(from)-1]
		from = from[:len(from)-1]
	}
	return out
}

// FuzzWaves decodes a tree (fuzzTree) and a stream of batched waves, and
// runs them through a Contraction. Each wave is one byte, kind (grow,
// collapse, set-leaf, set-op) in the low two bits and k = 1–8 above them,
// then a target byte and a value byte per target; targets index the live
// leaves, cherries or internal nodes modulo their count. After every wave
// the cell table must mirror T and the trace must hold its invariants
// (Validate) and equal, field by field, the trace a full re-simulation
// builds (validateTrace), the root must equal tree.Eval, sampled
// ValuesBatch reads must equal EvalAt, and no wave may re-simulate, for
// any reason, except for budget on a tree grown past ruleReach leaves:
// order and sanity are invariant failures, and below ruleReach no
// frontier can pass the size rule.
func FuzzWaves(f *testing.F) {
	// The twin oracle's cases, in this format: the case's ring, size
	// (capped at 64 leaves) and shape, and a wave stream from its
	// workload seed.
	for ci, tc := range twinCases() {
		seed := []byte{byte(ci % len(twinRings)), byte(min(tc.leaves, 64) - 2), 0, byte(tc.seed)}
		for i, sh := range allShapes {
			if sh == tc.shape {
				seed[2] = byte(i)
			}
		}
		wrk := prng.New(tc.seed * 977)
		for range 3 * tc.steps {
			seed = append(seed, byte(wrk.Intn(256)))
		}
		f.Add(seed)
	}
	f.Add([]byte{2, 0, 4, 9, 0, 0, 0, 0, 28, 1, 2})     // two leaves, then a k = 8 grow
	f.Add([]byte{0, 62, 4, 1, 5, 1, 3, 3, 3, 7, 9, 11}) // a 64-leaf tree spelled out

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		ring, tr, seed := fuzzTree(in)
		c := New(tr, seed+1, nil)
		for wave := 0; wave < maxFuzzWaves && !in.done(); wave++ {
			head := in.next()
			kind, k := head%4, 1+(head>>2)%8
			var leaves, cherries, internals []*tree.Node
			for _, n := range tr.Nodes {
				switch {
				case n == nil:
				case n.IsLeaf():
					leaves = append(leaves, n)
				default:
					internals = append(internals, n)
					if n.Left.IsLeaf() && n.Right.IsLeaf() {
						cherries = append(cherries, n)
					}
				}
			}
			switch kind {
			case 0:
				var ops []AddOp
				for _, l := range pickTargets(in, leaves, k) {
					ops = append(ops, AddOp{Leaf: l, Op: fuzzOp(ring, in.next()),
						LeftVal: ring.Normalize(int64(in.next())), RightVal: ring.Normalize(int64(in.next()))})
				}
				c.AddLeaves(ops)
			case 1:
				var ops []RemoveOp
				for _, n := range pickTargets(in, cherries, k) {
					ops = append(ops, RemoveOp{Node: n, NewValue: ring.Normalize(int64(in.next()))})
				}
				c.RemoveLeaves(ops)
			case 2:
				ls := pickTargets(in, leaves, k)
				vals := make([]int64, len(ls))
				for i := range vals {
					vals[i] = ring.Normalize(int64(in.next()))
				}
				c.SetValues(ls, vals)
			case 3:
				ns := pickTargets(in, internals, k)
				ops := make([]semiring.Op, len(ns))
				for i := range ops {
					ops[i] = fuzzOp(ring, in.next())
				}
				c.SetOps(ns, ops)
			}
			if hs := c.LastHeal(); hs.Resimulated && (hs.ResimReason != ResimBudget || tr.LeafCount() <= ruleReach) {
				t.Fatalf("wave %d (kind %d, k %d): re-simulated for %q", wave, kind, k, hs.ResimReason)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("wave %d (kind %d, k %d): %v", wave, kind, k, err)
			}
			if err := c.validateTrace(); err != nil {
				t.Fatalf("wave %d (kind %d, k %d): trace oracle: %v", wave, kind, k, err)
			}
			if got, want := c.RootValue(), tr.Eval(); got != want {
				t.Fatalf("wave %d (kind %d, k %d): root %d want %d", wave, kind, k, got, want)
			}
			var sample []*tree.Node
			for _, n := range tr.Nodes {
				if n != nil && (n.ID+wave)%7 == 0 && len(sample) < 8 {
					sample = append(sample, n)
				}
			}
			for i, got := range c.ValuesBatch(sample) {
				if want := tr.EvalAt(sample[i]); got != want {
					t.Fatalf("wave %d: value of node %d is %d, want %d", wave, sample[i].ID, got, want)
				}
			}
		}
	})
}
