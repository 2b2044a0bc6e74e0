package contract

import (
	"math"
	"testing"
	"testing/quick"

	"dyntc/internal/core"
	"dyntc/internal/pram"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

var testRing = semiring.NewMod(1_000_000_007)

func TestEulerLeafOrder(t *testing.T) {
	for _, shape := range []tree.Shape{tree.ShapeRandom, tree.ShapeBalanced, tree.ShapeLeftComb, tree.ShapeRightComb} {
		for _, n := range []int{1, 2, 3, 33, 500} {
			tr := tree.Generate(testRing, prng.New(uint64(n)), n, shape)
			want := tr.Leaves()
			got := EulerLeafOrder(pram.Sequential(), tr)
			if len(got) != len(want) {
				t.Fatalf("shape %d n=%d: %d leaves, want %d", shape, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape %d n=%d: order differs at %d", shape, n, i)
				}
			}
		}
	}
}

// TestKDValueMatchesEval: the Kosaraju–Delcher schedule and the paper's
// PT-guided contraction (§4.2, internal/core) compute the same value as
// the naive evaluator on every shape, unbounded-depth combs included.
func TestKDValueMatchesEval(t *testing.T) {
	for _, shape := range []tree.Shape{tree.ShapeRandom, tree.ShapeBalanced, tree.ShapeLeftComb, tree.ShapeRightComb} {
		for _, n := range []int{1, 2, 3, 4, 5, 17, 128, 1000, 1 << 14} {
			tr := tree.Generate(testRing, prng.New(uint64(7*n+int(shape))), n, shape)
			res := KD(pram.Sequential(), tr)
			want := tr.Eval()
			if res.Value != want {
				t.Fatalf("shape %d n=%d: KD=%d eval=%d", shape, n, res.Value, want)
			}
			if pt := core.New(tr, uint64(n), nil).RootValue(); pt != want {
				t.Fatalf("shape %d n=%d: PT root=%d eval=%d", shape, n, pt, want)
			}
		}
	}
}

func TestKDQuickProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 1 + int(seed%200)
		tr := tree.Generate(testRing, src, n, tree.ShapeRandom)
		return KD(pram.Sequential(), tr).Value == tr.Eval()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKDOverTropical(t *testing.T) {
	// Contraction must work over any commutative semiring (§4.2); min-plus
	// exercises the non-ring case.
	mp := semiring.MinPlus{}
	tr := tree.Generate(mp, prng.New(3), 200, tree.ShapeRandom)
	if got, want := KD(pram.Sequential(), tr).Value, tr.Eval(); got != want {
		t.Fatalf("min-plus: KD=%d eval=%d", got, want)
	}
}

func TestKDRoundsLogarithmic(t *testing.T) {
	// Each KD round halves the leaf count: rake rounds ≈ c·log₂ n even on
	// a comb of depth n.
	for _, n := range []int{1 << 10, 1 << 13} {
		tr := tree.Generate(testRing, prng.New(9), n, tree.ShapeLeftComb)
		res := KD(pram.Sequential(), tr)
		maxRounds := int64(4 * math.Log2(float64(n)))
		if res.RakeRounds > maxRounds {
			t.Fatalf("n=%d: %d rake rounds > %d", n, res.RakeRounds, maxRounds)
		}
	}
}

func TestKDParallelMachine(t *testing.T) {
	tr := tree.Generate(testRing, prng.New(4), 2000, tree.ShapeRandom)
	if got, want := KD(pram.New(4), tr).Value, tr.Eval(); got != want {
		t.Fatalf("parallel KD=%d eval=%d", got, want)
	}
}
