package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dyntc/internal/arena"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// twinStep drives one randomized workload step against a contraction.
// Decisions are drawn from wrk, node choices by index, so the same
// sequence replays identically on a structurally identical twin. Every
// kind but the query is a batch of up to maxTwinBatch distinct targets,
// so one wave can grow adjacent leaves or collapse adjacent cherries.
type twinStep struct {
	kind int // 0=AddLeaves, 1=RemoveLeaves, 2=SetValues, 3=SetOps, 4=query
	// ix indexes tr.Leaves() for kinds 0 and 2, tr.Nodes otherwise.
	ix    []int
	valA  []int64 // per target: the (left) leaf value
	valB  []int64 // per target: the right leaf value of a grow
	mulOp []bool  // per target: OpMul rather than OpAdd
}

// maxTwinBatch bounds the targets of one twin step.
const maxTwinBatch = 16

// pickDistinct draws min(k, len(from)) distinct entries of from.
func pickDistinct(wrk *prng.Source, from []int, k int) []int {
	out := make([]int, 0, k)
	for _, i := range wrk.Perm(len(from))[:min(k, len(from))] {
		out = append(out, from[i])
	}
	return out
}

func planStep(wrk *prng.Source, tr *tree.Tree) twinStep {
	st := twinStep{kind: wrk.Intn(5)}
	leaves := tr.Leaves()
	var cherries, internals []int
	for i, n := range tr.Nodes {
		if n == nil || n.IsLeaf() {
			continue
		}
		internals = append(internals, i)
		if n.Left.IsLeaf() && n.Right.IsLeaf() {
			cherries = append(cherries, i)
		}
	}
	if st.kind == 1 && len(leaves) < 4 {
		st.kind = 2 // too small to shrink: a label batch instead
	}
	k := 1 + wrk.Intn(maxTwinBatch)
	switch st.kind {
	case 0, 2:
		st.ix = pickDistinct(wrk, indices(len(leaves)), k)
	case 1:
		// Keep at least three leaves standing.
		st.ix = pickDistinct(wrk, cherries, min(k, len(leaves)-3))
	case 3:
		st.ix = pickDistinct(wrk, internals, k)
	case 4:
		for {
			ix := wrk.Intn(len(tr.Nodes))
			if tr.Nodes[ix] != nil {
				st.ix = []int{ix}
				break
			}
		}
	}
	for range st.ix {
		st.valA = append(st.valA, wrk.Int63())
		st.valB = append(st.valB, wrk.Int63())
		st.mulOp = append(st.mulOp, wrk.Intn(2) == 1)
	}
	return st
}

// indices returns 0, 1, …, n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func applyStep(t *testing.T, r semiring.Ring, tr *tree.Tree, c *Contraction, st twinStep) {
	t.Helper()
	leaves := tr.Leaves()
	op := func(i int) semiring.Op {
		if st.mulOp[i] {
			return semiring.OpMul(r)
		}
		return semiring.OpAdd(r)
	}
	switch st.kind {
	case 0:
		ops := make([]AddOp, 0, len(st.ix))
		for i, ix := range st.ix {
			ops = append(ops, AddOp{Leaf: leaves[ix], Op: op(i),
				LeftVal: r.Normalize(st.valA[i]), RightVal: r.Normalize(st.valB[i])})
		}
		c.AddLeaves(ops)
	case 1:
		ops := make([]RemoveOp, 0, len(st.ix))
		for i, ix := range st.ix {
			ops = append(ops, RemoveOp{Node: tr.Nodes[ix], NewValue: r.Normalize(st.valA[i])})
		}
		c.RemoveLeaves(ops)
	case 2:
		ls := make([]*tree.Node, 0, len(st.ix))
		vals := make([]int64, 0, len(st.ix))
		for i, ix := range st.ix {
			ls = append(ls, leaves[ix])
			vals = append(vals, r.Normalize(st.valA[i]))
		}
		c.SetValues(ls, vals)
	case 3:
		ns := make([]*tree.Node, 0, len(st.ix))
		ops := make([]semiring.Op, 0, len(st.ix))
		for i, ix := range st.ix {
			ns = append(ns, tr.Nodes[ix])
			ops = append(ops, op(i))
		}
		c.SetOps(ns, ops)
	case 4:
		n := tr.Nodes[st.ix[0]]
		if got, want := c.Value(n), c.ValueOracle(n); got != want {
			t.Fatalf("query node %d: got %d want %d", n.ID, got, want)
		}
	}
}

// twinRings are the rings the twin oracle's cases cycle through.
var twinRings = []semiring.Ring{semiring.MaxPlus{}, semiring.MinPlus{}, semiring.NewMod(1_000_003)}

// twinCase is one workload of the twin oracle: the tree's generator seed,
// shape and size, and the number of steps.
type twinCase struct {
	seed   uint64
	shape  tree.Shape
	leaves int
	steps  int
	// long: the case must itself propagate most of its structural
	// waves, not only the workload as a whole.
	long bool
}

// twinCases lists the twin oracle's workloads: three long runs on
// 96-leaf random trees, then short runs across shapes and sizes. Case i
// runs over twinRings[i%len(twinRings)].
func twinCases() []twinCase {
	cases := []twinCase{{3, tree.ShapeRandom, 96, 120, true}, {7, tree.ShapeRandom, 96, 120, true}, {41, tree.ShapeRandom, 96, 120, true}}
	sizes := prng.New(1)
	for seed := uint64(100); seed < 132; seed++ {
		cases = append(cases, twinCase{seed, allShapes[seed%4], 8 + sizes.Intn(393), 40, false})
	}
	return cases
}

// TestPropagationTwinOracle runs the same randomized workload of batched
// waves — up to 16 grows, up to 16 collapses drawn from all cherries,
// and SetValues/SetOps batches — against a change-propagation
// contraction and a full-recontraction twin (gate off), on 8–400-leaf
// trees of every shape, and demands they agree on every observable: root
// value, per-node queries, and internal invariants. The propagating
// twin's trace is additionally compared field-by-field against a freshly
// simulated oracle after every step.
func TestPropagationTwinOracle(t *testing.T) {
	rings := twinRings
	cases := twinCases()
	// enough fails unless some structural waves ran and at least half of
	// them propagated.
	enough := func(t *testing.T, propagated, structural int) {
		t.Helper()
		if structural == 0 {
			t.Fatal("workload produced no structural waves")
		}
		if propagated*2 < structural {
			t.Fatalf("only %d/%d structural waves propagated", propagated, structural)
		}
	}
	propagated, structural := 0, 0
	for ci, tc := range cases {
		seed := tc.seed
		ring := rings[ci%len(rings)]
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trA := tree.Generate(ring, prng.New(seed), tc.leaves, tc.shape)
			trB := tree.Generate(ring, prng.New(seed), tc.leaves, tc.shape)
			cA := New(trA, seed+100, nil)
			cB := New(trB, seed+100, nil)
			cB.noPropagate = true

			wrk := prng.New(seed * 977)
			caseProp, caseStruct := 0, 0
			for step := 0; step < tc.steps; step++ {
				st := planStep(wrk, trA)
				applyStep(t, ring, trA, cA, st)
				applyStep(t, ring, trB, cB, st)
				if st.kind == 0 || st.kind == 1 {
					caseStruct++
					if !cA.LastHeal().Resimulated {
						caseProp++
					}
					// The gate-off twin re-simulates every structural wave,
					// for the gate.
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
			if tc.long {
				enough(t, caseProp, caseStruct)
			}
			propagated += caseProp
			structural += caseStruct
		})
	}
	enough(t, propagated, structural)
	t.Logf("%d/%d structural waves propagated", propagated, structural)
}

// TestResimReasons pins the one size rule and the gate, the
// re-simulations a test can provoke directly. Waves on trees of 1–8
// leaves propagate, and so do waves growing every leaf of a tree of up to
// 32, however much of PT they rebuild. A wave growing every leaf of a
// 257-leaf tree queues more than half the trace and re-simulates as
// budget before it re-executes a record, while a k = 1 wave on that tree
// propagates. order and sanity need a wound that goes wrong.
func TestResimReasons(t *testing.T) {
	ring := semiring.MaxPlus{}
	check := func(c *Contraction) HealStats {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := c.validateTrace(); err != nil {
			t.Fatal(err)
		}
		if got, want := c.RootValue(), c.T.Eval(); got != want {
			t.Fatalf("root %d, tree evaluates to %d", got, want)
		}
		return c.LastHeal()
	}
	grow := func(c *Contraction, leaves ...*tree.Node) HealStats {
		t.Helper()
		ops := make([]AddOp, len(leaves))
		for i, l := range leaves {
			ops[i] = AddOp{Leaf: l, Op: semiring.OpAdd(ring), LeftVal: 1, RightVal: int64(i)}
		}
		c.AddLeaves(ops)
		return check(c)
	}

	// 1 → 8 leaves one grow at a time, back to 1 one collapse at a time,
	// then 1 → 64 growing every leaf at once.
	tr := tree.New(ring, 1)
	c := New(tr, 3, nil)
	for tr.LeafCount() < 8 {
		n := tr.LeafCount()
		if hs := grow(c, tr.Leaves()[n/2]); hs.Resimulated || hs.ResimReason != "" || hs.StructRecords == 0 {
			t.Fatalf("grow at %d leaves: %+v", n, hs)
		}
	}
	for tr.LeafCount() > 1 {
		n := tr.LeafCount()
		for _, x := range tr.Nodes {
			if x != nil && !x.IsLeaf() && x.Left.IsLeaf() && x.Right.IsLeaf() {
				c.RemoveLeaves([]RemoveOp{{Node: x, NewValue: int64(n)}})
				break
			}
		}
		if hs := check(c); hs.Resimulated || hs.ResimReason != "" {
			t.Fatalf("collapse at %d leaves: %+v", n, hs)
		}
	}
	for tr.LeafCount() < 64 {
		n := tr.LeafCount()
		if hs := grow(c, tr.Leaves()...); hs.Resimulated || hs.ResimReason != "" {
			t.Fatalf("growing all %d leaves: %+v", n, hs)
		}
	}

	// The gate-off twin takes the same waves: a budget wave that
	// re-simulates before any record runs charges the PRAM exactly what
	// the twin's re-simulation does.
	big := tree.Generate(ring, prng.New(5), 256, tree.ShapeRandom)
	c = New(big, 7, nil)
	twinTree := tree.Generate(ring, prng.New(5), 256, tree.ShapeRandom)
	twin := New(twinTree, 7, nil)
	twin.noPropagate = true
	if hs := grow(c, big.Leaves()[17]); hs.Resimulated || hs.ResimReason != "" {
		t.Fatalf("k=1 wave on 256 leaves fell back: %+v", hs)
	}
	grow(twin, twinTree.Leaves()[17])
	before, twinBefore := c.Machine().Metrics(), twin.Machine().Metrics()
	if hs := grow(c, big.Leaves()...); !hs.Resimulated || hs.ResimReason != ResimBudget {
		t.Fatalf("growing all 257 leaves: %+v, want a budget re-simulation", hs)
	}
	grow(twin, twinTree.Leaves()...)
	after, twinAfter := c.Machine().Metrics(), twin.Machine().Metrics()
	if steps, work := after.Steps-before.Steps, after.Work-before.Work; steps != twinAfter.Steps-twinBefore.Steps ||
		work != twinAfter.Work-twinBefore.Work {
		t.Fatalf("budget wave charged %d steps, %d work; the gate's re-simulation %d, %d",
			steps, work, twinAfter.Steps-twinBefore.Steps, twinAfter.Work-twinBefore.Work)
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
// and touch O(log n) records, not Θ(n). It holds on random trees and on
// both combs, whose touch chains are the longest: 24 single-leaf grows,
// then 24 collapses of the cherries they made.
func TestSmallWavePropagatesOnLargeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree")
	}
	const n = 1 << 16
	logN := math.Log2(n)
	for _, shape := range []tree.Shape{tree.ShapeRandom, tree.ShapeLeftComb, tree.ShapeRightComb} {
		ring := semiring.MaxPlus{}
		src := prng.New(23)
		tr := tree.Generate(ring, src, n, shape)
		c := New(tr, 31, nil)

		maxTouched := 0
		check := func(what string, i int) {
			hs := c.LastHeal()
			if hs.Resimulated {
				t.Fatalf("shape %d, %s %d: k=1 wave re-simulated on %d-leaf tree", shape, what, i, n)
			}
			maxTouched = max(maxTouched, hs.WoundRecords)
			if got, want := c.RootValue(), tr.Eval(); got != want {
				t.Fatalf("shape %d, %s %d: root %d want %d", shape, what, i, got, want)
			}
		}
		var grown []*tree.Node
		for i := 0; i < 24; i++ {
			leaves := tr.Leaves()
			leaf := leaves[src.Intn(len(leaves))]
			c.AddLeaves([]AddOp{{Leaf: leaf, Op: semiring.OpAdd(ring),
				LeftVal: src.Int63() % 1000, RightVal: src.Int63() % 1000}})
			grown = append(grown, leaf)
			check("grow", i)
		}
		for i := len(grown) - 1; i >= 0; i-- {
			c.RemoveLeaves([]RemoveOp{{Node: grown[i], NewValue: src.Int63() % 1000}})
			check("collapse", i)
		}
		// O(log n) with a generous constant: far below any Θ(n) regression.
		if bound := int(64 * logN); maxTouched > bound {
			t.Fatalf("shape %d: k=1 wave touched %d records, want <= %d (~64 log n)", shape, maxTouched, bound)
		}
		if frac := float64(maxTouched) / float64(c.Records()); frac > 0.05 {
			t.Fatalf("shape %d: k=1 wave touched %.2f%% of records, want <= 5%%", shape, 100*frac)
		}
		t.Logf("shape %d: max %d records touched by a k=1 wave", shape, maxTouched)
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
func (c *Contraction) validateTrace() error { return c.traceDiff(c.simulate) }

// traceDiff rebuilds the trace with rebuild, on copies of the cell table
// and the record arena, and compares it with the live trace field by
// field, resolving each trace's links in its own arena; the live trace is
// left in place.
func (c *Contraction) traceDiff(rebuild func()) error {
	live, liveN, liveRecs := c.cells, c.records, c.recs
	liveRoot, liveSurv := c.rootValue, c.survivor
	// rebuild rewrites the table in place and resets the arena, so it
	// gets a copy of the one and an arena of its own.
	c.cells, c.recs = slices.Clone(live), arena.Arena[Record, recID]{}
	rebuild()
	ora, oraN, oraRecs := c.cells, c.records, c.recs
	oraRoot, oraSurv := c.rootValue, c.survivor
	c.cells, c.records, c.recs = live, liveN, liveRecs
	c.rootValue, c.survivor = liveRoot, liveSurv

	if liveN != oraN {
		return fmt.Errorf("%d records want %d", liveN, oraN)
	}
	lk, ok := recKey(&liveRecs), recKey(&oraRecs)
	for id := range ora {
		l, o := liveRecs.Get(live[id].rec), oraRecs.Get(ora[id].rec)
		if (l == nil) != (o == nil) {
			return fmt.Errorf("leaf %d: record %v want %v", id, l != nil, o != nil)
		}
		if o != nil {
			if l.V != o.V || l.vid != o.vid || l.Round != o.Round {
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
			if lk(l.VPrev) != ok(o.VPrev) || lk(l.PPrev) != ok(o.PPrev) ||
				lk(l.WPrev) != ok(o.WPrev) || lk(l.Next) != ok(o.Next) {
				return fmt.Errorf("leaf %d: chain links differ", id)
			}
			if l.dirty || l.structDirty || l.dead {
				return fmt.Errorf("leaf %d: record left marked", id)
			}
		}
		if lk(live[id].removedBy) != ok(ora[id].removedBy) {
			return fmt.Errorf("removedBy[%d] differs", id)
		}
		if lk(live[id].firstTouch) != ok(ora[id].firstTouch) {
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

// recKey names the links of arena a by their record's raked leaf, which
// two arenas holding the same trace agree on: -1 for none.
func recKey(a *arena.Arena[Record, recID]) func(recID) int {
	return func(l recID) int {
		if l == 0 {
			return -1
		}
		return int(a.At(l).V - 1)
	}
}
