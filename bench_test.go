// Microbenchmarks, one per paper table E1–E11 (run with
// go test -bench=. -benchmem). Each benchmark isolates the operation whose
// bound the package test named in the README's "Provenance" asserts;
// custom metrics report the PRAM quantities (wound sizes, rounds)
// alongside wall time. End-to-end numbers come from benchmark/ only.
package dyntc

import (
	"testing"

	"dyntc/internal/contract"
	"dyntc/internal/core"
	"dyntc/internal/euler"
	"dyntc/internal/listprefix"
	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/rbsts"
	"dyntc/internal/semiring"
	"dyntc/internal/seqdyn"
	"dyntc/internal/tree"
)

var benchRing = semiring.NewMod(1_000_000_007)

func benchIntTree(seed uint64, n int) *rbsts.Tree[int64, int64] {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return rbsts.New[int64, int64](seed,
		func(p int64) int64 { return p },
		func(a, b int64) int64 { return a + b },
		vals)
}

// BenchmarkE1Build measures RBSTS construction (Lemma 2.1).
func BenchmarkE1Build(b *testing.B) {
	const n = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := benchIntTree(uint64(i+1), n)
		if tr.Len() != n {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkE2Activation measures parse-tree activation for |U|=16 on
// n=2^16 (Theorem 2.1).
func BenchmarkE2Activation(b *testing.B) {
	const n, u = 1 << 16, 16
	tr := benchIntTree(1, n)
	src := prng.New(2)
	leaves := make([]*rbsts.Node[int64, int64], u)
	m := pram.Sequential()
	var rounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range leaves {
			leaves[j] = tr.LeafAt(src.Intn(n))
		}
		m.Reset()
		act := tr.Activate(m, leaves)
		rounds += m.Metrics().Steps
		act.Release(m)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkE3InsertDelete measures one batch insert + delete of 16 leaves
// (Theorems 2.2/2.3).
func BenchmarkE3InsertDelete(b *testing.B) {
	const n, u = 1 << 14, 16
	tr := benchIntTree(3, n)
	src := prng.New(4)
	var rebuilt int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := make([]rbsts.InsertOp[int64], u)
		for j := range ops {
			ops[j] = rbsts.InsertOp[int64]{Gap: src.Intn(tr.Len() + 1), Payloads: []int64{1}}
		}
		rep := tr.BatchInsert(nil, ops)
		rebuilt += int64(rep.RebuildLeaves)
		dels := make([]*rbsts.Node[int64, int64], u)
		seen := map[int]bool{}
		for j := 0; j < u; {
			k := src.Intn(tr.Len())
			if !seen[k] {
				seen[k] = true
				dels[j] = tr.LeafAt(k)
				j++
			}
		}
		rep = tr.BatchDelete(nil, dels)
		rebuilt += int64(rep.RebuildLeaves)
	}
	b.ReportMetric(float64(rebuilt)/float64(b.N), "rebuilt-leaves/op")
}

// BenchmarkE4ListPrefix measures a 64-query batch prefix (Theorem 3.1).
func BenchmarkE4ListPrefix(b *testing.B) {
	const n, u = 1 << 16, 64
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	l := listprefix.New(5, listprefix.SumInt64(), vals)
	src := prng.New(6)
	elems := make([]*listprefix.Elem[int64], u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range elems {
			elems[j] = l.At(src.Intn(n))
		}
		if out := l.BatchPrefix(nil, elems); len(out) != u {
			b.Fatal("bad batch")
		}
	}
}

// BenchmarkE5StaticContractionKD measures the classical Kosaraju–Delcher
// contraction.
func BenchmarkE5StaticContractionKD(b *testing.B) {
	const n = 1 << 12
	tr := tree.Generate(benchRing, prng.New(7), n, tree.ShapeRandom)
	want := tr.Eval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := contract.KD(pram.Sequential(), tr); res.Value != want {
			b.Fatal("wrong value")
		}
	}
}

// BenchmarkE5StaticContractionPT measures the RBSTS-guided contraction
// (trace construction included).
func BenchmarkE5StaticContractionPT(b *testing.B) {
	const n = 1 << 12
	tr := tree.Generate(benchRing, prng.New(7), n, tree.ShapeRandom)
	want := tr.Eval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := core.New(tr, uint64(i+1), nil); c.RootValue() != want {
			b.Fatal("wrong value")
		}
	}
}

// BenchmarkE6DynamicUpdates measures a 16-leaf batch value update with
// wound healing (Theorem 4.1).
func BenchmarkE6DynamicUpdates(b *testing.B) {
	const n, u = 1 << 14, 16
	tr := tree.Generate(benchRing, prng.New(8), n, tree.ShapeRandom)
	c := core.New(tr, 9, nil)
	leaves := tr.Leaves()
	src := prng.New(10)
	ls := make([]*tree.Node, u)
	vs := make([]int64, u)
	var wound int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < u; j++ {
			ls[j] = leaves[src.Intn(len(leaves))]
			vs[j] = src.Int63()
		}
		c.SetValues(ls, vs)
		wound += int64(c.LastHeal().WoundRecords)
	}
	b.ReportMetric(float64(wound)/float64(b.N), "wound-records/op")
}

// BenchmarkE7SingleUpdate measures one leaf update (Theorem 4.2
// sequential).
func BenchmarkE7SingleUpdate(b *testing.B) {
	const n = 1 << 14
	tr := tree.Generate(benchRing, prng.New(11), n, tree.ShapeRandom)
	c := core.New(tr, 12, nil)
	leaves := tr.Leaves()
	src := prng.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetValue(leaves[src.Intn(len(leaves))], src.Int63())
	}
}

// BenchmarkE7Query measures one subexpression value query.
func BenchmarkE7Query(b *testing.B) {
	const n = 1 << 14
	tr := tree.Generate(benchRing, prng.New(14), n, tree.ShapeRandom)
	c := core.New(tr, 15, nil)
	var internals []*tree.Node
	for _, nd := range tr.Nodes {
		if nd != nil && !nd.IsLeaf() {
			internals = append(internals, nd)
		}
	}
	src := prng.New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Value(internals[src.Intn(len(internals))])
	}
}

// BenchmarkE8TreeProps measures a preorder query on a maintained tour
// (Theorem 5.1).
func BenchmarkE8TreeProps(b *testing.B) {
	const n = 1 << 14
	tr := tree.Generate(benchRing, prng.New(17), n, tree.ShapeRandom)
	e := euler.New(tr, 18)
	var live []*tree.Node
	for _, nd := range tr.Nodes {
		if nd != nil {
			live = append(live, nd)
		}
	}
	src := prng.New(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Preorder(live[src.Intn(len(live))])
	}
}

// BenchmarkE9LCA measures an LCA query via the tour range-min
// (Theorem 5.2).
func BenchmarkE9LCA(b *testing.B) {
	const n = 1 << 14
	tr := tree.Generate(benchRing, prng.New(20), n, tree.ShapeRandom)
	e := euler.New(tr, 21)
	var live []*tree.Node
	for _, nd := range tr.Nodes {
		if nd != nil {
			live = append(live, nd)
		}
	}
	src := prng.New(22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.LCA(live[src.Intn(len(live))], live[src.Intn(len(live))])
	}
}

// BenchmarkE10ContractionComb and BenchmarkE10PathRecomputeComb expose the
// paper's motivating gap on an unbounded-depth tree: contraction updates
// stay logarithmic while path recomputation pays Θ(depth).
func BenchmarkE10ContractionComb(b *testing.B) {
	const n = 1 << 12
	tr := tree.Generate(benchRing, prng.New(25), n, tree.ShapeLeftComb)
	c := core.New(tr, 26, nil)
	deep := tr.Leaves()[0]
	src := prng.New(27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetValue(deep, src.Int63())
	}
}

func BenchmarkE10PathRecomputeComb(b *testing.B) {
	const n = 1 << 12
	tr := tree.Generate(benchRing, prng.New(25), n, tree.ShapeLeftComb)
	p := seqdyn.NewPathEval(tr)
	deep := tr.Leaves()[0]
	src := prng.New(27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SetValue(deep, src.Int63())
	}
}

// BenchmarkE11NaiveActivation is the shortcut ablation comparator for
// BenchmarkE2Activation.
func BenchmarkE11NaiveActivation(b *testing.B) {
	const n, u = 1 << 16, 16
	tr := benchIntTree(28, n)
	src := prng.New(29)
	leaves := make([]*rbsts.Node[int64, int64], u)
	m := pram.Sequential()
	var rounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range leaves {
			leaves[j] = tr.LeafAt(src.Intn(n))
		}
		m.Reset()
		act := tr.NaiveActivate(m, leaves)
		rounds += m.Metrics().Steps
		act.Release(m)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkFacadeGrow measures the full public-API growth path including
// tour maintenance.
func BenchmarkFacadeGrow(b *testing.B) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(30), WithTour())
	src := prng.New(31)
	leaves := []*Node{e.Tree().Root}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := src.Intn(len(leaves))
		leaf := leaves[k]
		l, r := e.Grow(leaf, OpAdd(ring), src.Int63(), src.Int63())
		// The grown leaf became internal: replace it in the pool.
		leaves[k] = l
		leaves = append(leaves, r)
	}
}
