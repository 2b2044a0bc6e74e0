package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// twinStep drives one randomized workload step against a contraction.
// Decisions are drawn from wrk, node choices by index, so the same
// sequence replays identically on a structurally identical twin.
type twinStep struct {
	kind   int // 0=AddLeaves, 1=RemoveLeaves, 2=SetValue, 3=SetOp, 4=query
	leafIx []int
	valA   int64
	valB   int64
	mulOp  bool
	nodeIx int
}

func planStep(wrk *prng.Source, tr *tree.Tree) twinStep {
	st := twinStep{kind: wrk.Intn(5)}
	leaves := tr.Leaves()
	switch st.kind {
	case 0:
		k := 1 + wrk.Intn(3)
		seen := map[int]bool{}
		for len(st.leafIx) < k && len(st.leafIx) < len(leaves) {
			ix := wrk.Intn(len(leaves))
			if !seen[ix] {
				seen[ix] = true
				st.leafIx = append(st.leafIx, ix)
			}
		}
		st.valA, st.valB = wrk.Int63(), wrk.Int63()
		st.mulOp = wrk.Intn(2) == 1
	case 1:
		// Collapsible nodes: internal with two leaf children.
		var cands []int
		for i, n := range tr.Nodes {
			if n != nil && !n.IsLeaf() && n.Left.IsLeaf() && n.Right.IsLeaf() {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 || len(leaves) < 4 {
			st.kind = 2 // too small to shrink: fall through to SetValue
		} else {
			st.nodeIx = cands[wrk.Intn(len(cands))]
			st.valA = wrk.Int63()
		}
	case 3:
		var cands []int
		for i, n := range tr.Nodes {
			if n != nil && !n.IsLeaf() {
				cands = append(cands, i)
			}
		}
		st.nodeIx = cands[wrk.Intn(len(cands))]
		st.mulOp = wrk.Intn(2) == 1
	case 4:
		for {
			ix := wrk.Intn(len(tr.Nodes))
			if tr.Nodes[ix] != nil {
				st.nodeIx = ix
				break
			}
		}
	}
	if st.kind == 2 {
		st.leafIx = []int{wrk.Intn(len(leaves))}
		st.valA = wrk.Int63()
	}
	return st
}

func applyStep(t *testing.T, r semiring.Ring, tr *tree.Tree, c *Contraction, st twinStep) {
	t.Helper()
	leaves := tr.Leaves()
	switch st.kind {
	case 0:
		op := semiring.OpAdd(r)
		if st.mulOp {
			op = semiring.OpMul(r)
		}
		ops := make([]AddOp, 0, len(st.leafIx))
		for _, ix := range st.leafIx {
			ops = append(ops, AddOp{Leaf: leaves[ix], Op: op,
				LeftVal: r.Normalize(st.valA), RightVal: r.Normalize(st.valB)})
		}
		c.AddLeaves(ops)
	case 1:
		c.RemoveLeaves([]RemoveOp{{Node: tr.Nodes[st.nodeIx], NewValue: r.Normalize(st.valA)}})
	case 2:
		c.SetValue(leaves[st.leafIx[0]], r.Normalize(st.valA))
	case 3:
		op := semiring.OpAdd(r)
		if st.mulOp {
			op = semiring.OpMul(r)
		}
		c.SetOp(tr.Nodes[st.nodeIx], op)
	case 4:
		n := tr.Nodes[st.nodeIx]
		if got, want := c.Value(n), c.ValueOracle(n); got != want {
			t.Fatalf("query node %d: got %d want %d", n.ID, got, want)
		}
	}
}

// TestPropagationTwinOracle runs the same randomized structural workload
// against a change-propagation contraction and a full-recontraction twin
// (gate off) and demands they agree on every observable: root value,
// per-node queries, and internal invariants. The propagating twin's
// trace is additionally compared field-by-field against a freshly
// simulated oracle after every step.
func TestPropagationTwinOracle(t *testing.T) {
	rings := []semiring.Ring{semiring.MaxPlus{}, semiring.MinPlus{}, semiring.NewMod(1_000_003)}
	for si, seed := range []uint64{3, 7, 41} {
		seed := seed
		ring := rings[si%len(rings)]
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trA := tree.Generate(ring, prng.New(seed), 96, tree.ShapeRandom)
			trB := tree.Generate(ring, prng.New(seed), 96, tree.ShapeRandom)
			cA := New(trA, seed+100, nil)
			cB := New(trB, seed+100, nil)
			cB.noPropagate = true

			wrk := prng.New(seed * 977)
			propagated, structural := 0, 0
			for step := 0; step < 120; step++ {
				st := planStep(wrk, trA)
				applyStep(t, ring, trA, cA, st)
				applyStep(t, ring, trB, cB, st)
				if st.kind == 0 || st.kind == 1 {
					structural++
					if !cA.LastHeal().Resimulated {
						propagated++
					}
					if hB := cB.LastHeal(); !hB.Resimulated || hB.ResimReason != ResimGate {
						t.Fatalf("step %d: gate-off twin must re-simulate for reason %q, got %+v", step, ResimGate, hB)
					}
				}
				if hA := cA.LastHeal(); hA.Resimulated != slices.Contains(ResimReasons[:], hA.ResimReason) ||
					(!hA.Resimulated && hA.ResimReason != "") {
					t.Fatalf("step %d: fallback not attributed: %+v", step, hA)
				}
				if got, want := cA.RootValue(), cB.RootValue(); got != want {
					t.Fatalf("step %d: root %d, twin %d", step, got, want)
				}
				if got, want := cA.RootValue(), trA.Eval(); got != want {
					t.Fatalf("step %d: root %d, oracle %d", step, got, want)
				}
				for _, n := range trA.Nodes {
					if n != nil && wrk.Intn(8) == 0 {
						if got, want := cA.Value(n), cA.ValueOracle(n); got != want {
							t.Fatalf("step %d node %d: %d want %d", step, n.ID, got, want)
						}
					}
				}
				if err := cA.Validate(); err != nil {
					t.Fatalf("step %d: validate: %v", step, err)
				}
				if err := cB.Validate(); err != nil {
					t.Fatalf("step %d: twin validate: %v", step, err)
				}
				if err := cA.validateTrace(); err != nil {
					t.Fatalf("step %d: trace oracle: %v", step, err)
				}
			}
			if structural == 0 {
				t.Fatal("workload produced no structural waves")
			}
			if propagated*2 < structural {
				t.Fatalf("only %d/%d structural waves propagated", propagated, structural)
			}
		})
	}
}

// TestResimReasons pins the attribution of the fallbacks a test can
// provoke directly: a tree under the propagation floor (where PT may
// also rebuild from its root) and the gate. order, budget and sanity
// need a wound that goes wrong.
func TestResimReasons(t *testing.T) {
	ring := semiring.MaxPlus{}
	grow := func(c *Contraction, leaf *tree.Node) HealStats {
		c.AddLeaves([]AddOp{{Leaf: leaf, Op: semiring.OpAdd(ring), LeftVal: 1, RightVal: 2}})
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return c.LastHeal()
	}

	tr := tree.New(ring, 1)
	c := New(tr, 3, nil)
	for tr.LeafCount() < minPropagateLeaves-1 {
		hs := grow(c, tr.Leaves()[0])
		if !hs.Resimulated || (hs.ResimReason != ResimTiny && hs.ResimReason != ResimFullRebuild) {
			t.Fatalf("%d leaves: %+v", tr.LeafCount(), hs)
		}
	}

	big := tree.Generate(ring, prng.New(5), 256, tree.ShapeRandom)
	c = New(big, 7, nil)
	if hs := grow(c, big.Leaves()[17]); hs.Resimulated || hs.ResimReason != "" {
		t.Fatalf("k=1 wave on 256 leaves fell back: %+v", hs)
	}
	c.noPropagate = true
	if hs := grow(c, big.Leaves()[40]); hs.ResimReason != ResimGate {
		t.Fatalf("gate off: %+v", hs)
	}
	c.SetValue(big.Leaves()[3], 9)
	if hs := c.LastHeal(); hs.Resimulated || hs.ResimReason != "" {
		t.Fatalf("label wave carries a fallback: %+v", hs)
	}
}

// TestPropagationDeterminism asserts that two identical propagating runs
// produce bit-identical traces, heal statistics and PRAM meters.
func TestPropagationDeterminism(t *testing.T) {
	ring := semiring.MaxPlus{}
	type obs struct {
		heal HealStats
		root int64
	}
	run := func() ([]obs, int64, int64) {
		tr := tree.Generate(ring, prng.New(19), 128, tree.ShapeRandom)
		c := New(tr, 5, nil)
		wrk := prng.New(555)
		var log []obs
		for step := 0; step < 80; step++ {
			applyStep(t, ring, tr, c, planStep(wrk, tr))
			if err := c.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			log = append(log, obs{heal: c.LastHeal(), root: c.RootValue()})
		}
		m := c.Machine().Metrics()
		return log, m.Work, m.Steps
	}
	logA, workA, stepsA := run()
	logB, workB, stepsB := run()
	if workA != workB || stepsA != stepsB {
		t.Fatalf("metering diverged: work %d/%d steps %d/%d", workA, workB, stepsA, stepsB)
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("step %d: %+v vs %+v", i, logA[i], logB[i])
		}
	}
}

// TestSmallWavePropagatesOnLargeTree is the headline bound: a k=1
// structural update on a 64k-leaf tree must propagate (not re-simulate)
// and touch O(log n) records, not Θ(n).
func TestSmallWavePropagatesOnLargeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree")
	}
	ring := semiring.MaxPlus{}
	src := prng.New(23)
	tr := tree.Generate(ring, src, 1<<16, tree.ShapeRandom)
	c := New(tr, 31, nil)

	logN := math.Log2(float64(1 << 16))
	maxTouched := 0
	for i := 0; i < 24; i++ {
		leaves := tr.Leaves()
		leaf := leaves[src.Intn(len(leaves))]
		c.AddLeaves([]AddOp{{Leaf: leaf, Op: semiring.OpAdd(ring),
			LeftVal: src.Int63() % 1000, RightVal: src.Int63() % 1000}})
		hs := c.LastHeal()
		if hs.Resimulated {
			t.Fatalf("update %d: k=1 wave re-simulated on %d-leaf tree", i, 1<<16)
		}
		if hs.WoundRecords > maxTouched {
			maxTouched = hs.WoundRecords
		}
		if got, want := c.RootValue(), tr.Eval(); got != want {
			t.Fatalf("update %d: root %d want %d", i, got, want)
		}
	}
	// O(log n) with a generous constant: far below any Θ(n) regression.
	if bound := int(64 * logN); maxTouched > bound {
		t.Fatalf("k=1 wave touched %d records, want <= %d (~64 log n)", maxTouched, bound)
	}
	if frac := float64(maxTouched) / float64(c.Records()); frac > 0.05 {
		t.Fatalf("k=1 wave touched %.2f%% of records, want <= 5%%", 100*frac)
	}
}

// TestPropagationWorkVsResimulation is E13's claim (arXiv:2002.05129's
// k·log(1+n/k) against Θ(n)): on a 16k-leaf tree, a k-leaf structural
// wave charges at least 5× less PRAM work by change propagation than its
// re-simulating twin (noPropagate) does for the same ops on the same
// structure, and both land on the same root. Measured work ratios:
// 157/27/6.7 at k = 1/4/16. The k = 16 margin (1.3×) is thin because
// every wave also pays its PT rebuild on both sides, and one wave that
// falls back to re-simulation (budget) pulls the ratio toward 1 — this
// test is where such a fallback shows up first.
func TestPropagationWorkVsResimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree")
	}
	const n, trials = 1 << 14, 6
	ring := semiring.NewMod(1_000_000_007)
	src := prng.New(13)
	for _, k := range []int{1, 4, 16} {
		// Twin trees from one generator seed: identical structure, so a
		// leaf index addresses the same logical leaf in both.
		trP := tree.Generate(ring, prng.New(99), n, tree.ShapeRandom)
		trR := tree.Generate(ring, prng.New(99), n, tree.ShapeRandom)
		cP, cR := New(trP, 17, nil), New(trR, 17, nil)
		cR.noPropagate = true
		var workP, workR int64
		for trial := 0; trial < trials; trial++ {
			leavesP, leavesR := trP.Leaves(), trR.Leaves()
			opsP, opsR := make([]AddOp, 0, k), make([]AddOp, 0, k)
			seen := map[int]bool{}
			for len(opsP) < k {
				i := src.Intn(len(leavesP))
				if seen[i] {
					continue
				}
				seen[i] = true
				lv, rv := src.Int63(), src.Int63()
				opsP = append(opsP, AddOp{Leaf: leavesP[i], Op: semiring.OpAdd(ring), LeftVal: lv, RightVal: rv})
				opsR = append(opsR, AddOp{Leaf: leavesR[i], Op: semiring.OpAdd(ring), LeftVal: lv, RightVal: rv})
			}
			before := cP.Machine().Metrics().Work
			cP.AddLeaves(opsP)
			workP += cP.Machine().Metrics().Work - before
			before = cR.Machine().Metrics().Work
			cR.AddLeaves(opsR)
			workR += cR.Machine().Metrics().Work - before
			if got, want := cP.RootValue(), cR.RootValue(); got != want {
				t.Fatalf("k=%d trial %d: root %d, re-simulating twin %d", k, trial, got, want)
			}
		}
		ratio := float64(workR) / float64(workP)
		t.Logf("k=%d: re-simulation does %.1f× the PRAM work of propagation", k, ratio)
		if ratio < 5 {
			t.Fatalf("k=%d: propagation work %d vs re-simulation %d (%.1f×), want ≥ 5×", k, workP, workR, ratio)
		}
	}
}

// validateTrace compares the live trace, field by field, against a
// freshly simulated oracle trace over the same T and PT. It is the
// bit-identity half of the propagation contract: propagation must leave
// exactly the trace a full re-simulation would build.
func (c *Contraction) validateTrace() error {
	live, liveN := c.slots, c.records
	liveRoot, liveSurv := c.rootValue, c.survivor
	c.slots = slices.Clone(live) // simulate rewrites the table in place
	c.simulate()
	ora, oraN := c.slots, c.records
	oraRoot, oraSurv := c.rootValue, c.survivor
	c.slots, c.records = live, liveN
	c.rootValue, c.survivor = liveRoot, liveSurv

	key := func(r *Record) int {
		if r == nil {
			return -1
		}
		return r.V.ID
	}
	if liveN != oraN {
		return fmt.Errorf("%d records want %d", liveN, oraN)
	}
	for id := range ora {
		l, o := live[id].rec, ora[id].rec
		if (l == nil) != (o == nil) {
			return fmt.Errorf("leaf %d: record %v want %v", id, l != nil, o != nil)
		}
		if o != nil {
			if l.V != o.V || l.Round != o.Round {
				return fmt.Errorf("leaf %d: round %d want %d", id, l.Round, o.Round)
			}
			if l.P != o.P || l.W != o.W {
				return fmt.Errorf("leaf %d: P/W differ", id)
			}
			if l.G != o.G || l.WLeft != o.WLeft {
				return fmt.Errorf("leaf %d: G/WLeft differ", id)
			}
			if l.Prep != o.Prep || l.Wrep != o.Wrep {
				return fmt.Errorf("leaf %d: Prep/Wrep differ", id)
			}
			if l.Lv != o.Lv || l.LpIn != o.LpIn || l.LwIn != o.LwIn || l.LwOut != o.LwOut {
				return fmt.Errorf("leaf %d: labels differ", id)
			}
			if key(l.VPrev) != key(o.VPrev) || key(l.PPrev) != key(o.PPrev) ||
				key(l.WPrev) != key(o.WPrev) || key(l.Next) != key(o.Next) {
				return fmt.Errorf("leaf %d: chain links differ", id)
			}
			if l.dirty || l.structDirty || l.dead {
				return fmt.Errorf("leaf %d: record left marked", id)
			}
		}
		if key(live[id].removedBy) != key(ora[id].removedBy) {
			return fmt.Errorf("removedBy[%d] differs", id)
		}
		if key(live[id].firstTouch) != key(ora[id].firstTouch) {
			return fmt.Errorf("firstTouch[%d] differs", id)
		}
		if live[id].ptLeaf != ora[id].ptLeaf {
			return fmt.Errorf("ptLeaf[%d] moved under simulate", id)
		}
	}
	if liveRoot != oraRoot {
		return fmt.Errorf("root %d want %d", liveRoot, oraRoot)
	}
	if liveSurv != oraSurv {
		return fmt.Errorf("survivor differs")
	}
	return nil
}
