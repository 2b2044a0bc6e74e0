package core

// This file implements change propagation over the rake trace: structural
// updates (add/delete leaves) repair the existing records instead of
// re-simulating the whole contraction.
//
// The trace is viewed as a purely functional computation indexed by
// schedule time (round, raked-leaf ID). Every record stores not only its
// labels but its splice metadata — G (the overlay parent its W is spliced
// under), WLeft (which child slot), Prep (the rep value it writes) — so
// that the overlay state of any node u at any time t re-resolves in O(1)
// from u's touch chain: the last record touching u as W before t holds
// u's current parent (G), label (LwOut) and rep (Prep); no toucher means
// u still carries its initial state from T. Which node occupies a given
// child slot at time t resolves by walking removedBy from the original T
// child: each removal splices the removed node's surviving sibling up
// into its place. The chain heads (firstTouch), removedBy and the record
// of each raked leaf are fields of the node's cell, next to the links, op
// and value the cell mirrors from T, so resolving one node reads one
// 64-byte cell and never a tree.Node.
//
// A structural wave seeds the worklist with exactly the records whose
// schedule inputs changed — the gaps of rebuilt PT subtrees, of surviving
// ancestors whose height (= round) moved, and of gaps whose raked leaf
// was repointed — plus label wounds at T nodes that flipped between leaf
// and internal. Records re-execute in (round, ID) order on the same heap
// the label healer uses; every record popped has final producers (the
// final-prefix invariant: the heap never holds a record earlier than the
// one being processed), so participants, labels and links recompute
// exactly as a full simulation would. Consumers are woken only when an
// output they read actually changed: the label consumer (Next) on an
// LwOut delta, the rep consumer (Next) on a Prep delta, the
// slot-occupancy readers (removedBy of the old and new splice parents,
// the next rake of either sibling) on a participant delta, and any
// record whose chain-predecessor link moved. The result is bit-identical
// to simulate() while touching O(wound) records instead of Θ(n).
//
// One rule decides re-simulation, once, before any record runs: a wave
// whose frontier (the live records queued once the PT diff is seeded, the
// departed gaps are killed and the flipped labels are woken) exceeds half
// the trace plus a constant re-simulates as ResimBudget; every other wave
// propagates to completion, whatever the tree's size or how much of PT was
// rebuilt. A detected chain inconsistency (ResimOrder, ResimSanity) is an
// invariant failure, not a size decision: it also diverts to simulate(),
// and so does the tests' noPropagate twin (ResimGate), each saying which in
// HealStats.ResimReason. simulate() clears every cell's trace fields and
// rewrites the record arena from scratch, so it is always safe to run
// mid-repair.
//
// Records live by value in the Contraction's arena and link by recID. A
// killed record is released to the arena at once but recycled, and so
// reused, only once the pass has drained: until then the worklist and the
// seed scratch may still hold it, and once drained no link reaches it
// (Validate checks this). A re-simulation resets the arena, released
// records included. New gaps take their records from the recycled ones,
// so a wave at a steady tree size allocates no records; the worklist (a
// typed heap keyed by the packed schedule time) and the seed scratch
// belong to the Contraction and are reused from wave to wave.

// propPass is the state of one pass over the trace, label-only or
// structural. The Contraction owns the one instance and beginPass resets
// it, so the storage of h, toSeed and toWake carries over.
type propPass struct {
	c *Contraction
	h worklist

	// failed names why the pass must be abandoned (a ResimReason), empty
	// while it is sound.
	failed string

	// toSeed and toWake hold phase 1's records until every round is
	// rewritten: a key packed before that could be stale.
	toSeed, toWake []*Record
}

// beginPass readies the Contraction's pass for a new wave.
func (c *Contraction) beginPass() *propPass {
	pp := &c.pass
	pp.h.reset()
	clear(pp.toSeed)
	clear(pp.toWake)
	pp.toSeed, pp.toWake = pp.toSeed[:0], pp.toWake[:0]
	pp.failed = ""
	return pp
}

// fail abandons the pass; the first reason given stands.
func (pp *propPass) fail(reason string) {
	if pp.failed == "" {
		pp.failed = reason
	}
}

// looping reports whether a walk of n steps along one chain has gone on
// longer than the trace has records, failing the pass as ResimSanity if
// so: no sound chain is that long, so the walk has met a cycle, and the
// executor re-simulates instead of spinning on it.
func (pp *propPass) looping(n int) bool {
	if n <= pp.c.records {
		return false
	}
	pp.fail(ResimSanity)
	return true
}

// prevIn returns m's predecessor for participant u.
func (c *Contraction) prevIn(m *Record, u cellRef) *Record {
	switch u {
	case m.V:
		return c.recs.Get(m.VPrev)
	case m.P:
		return c.recs.Get(m.PPrev)
	default:
		return c.recs.Get(m.WPrev)
	}
}

// setPrevIn rewrites m's predecessor link for participant u.
func setPrevIn(m *Record, u cellRef, p *Record) {
	switch u {
	case m.V:
		m.VPrev = ref(p)
	case m.P:
		m.PPrev = ref(p)
	default:
		m.WPrev = ref(p)
	}
}

// nextIn returns m's successor in u's touch chain: only a W-touch has
// one (V and P are removed by the record, ending their chains).
func (c *Contraction) nextIn(m *Record, u cellRef) *Record {
	if u == m.W {
		return c.recs.Get(m.Next)
	}
	return nil
}

func (pp *propPass) enqueue(r *Record, structural bool) {
	if r == nil || r.dead {
		return
	}
	if structural {
		r.structDirty = true
	}
	if !r.dirty {
		r.dirty = true
		pp.h.push(r)
	}
}

// frontier counts the live records queued on the worklist. enqueue queues
// a record at most once until it is popped, so before the first pop these
// are distinct; a record killed after it was queued does not count.
func (pp *propPass) frontier() int {
	n := 0
	for _, it := range pp.h {
		if !it.r.dead {
			n++
		}
	}
	return n
}

// findPos locates the neighbors of time position `at` in u's touch
// chain, skipping the record `skip` (the one being repositioned): prev
// is the last toucher strictly before at, next the first at or after.
func (pp *propPass) findPos(u cellRef, at, skip *Record) (prev, next *Record) {
	c := pp.c
	step := func(m *Record) *Record {
		n := c.nextIn(m, u)
		if n == skip {
			n = c.nextIn(skip, u)
		}
		return n
	}
	cur := c.recs.Get(c.cell(u).firstTouch)
	if cur == skip {
		cur = c.nextIn(skip, u)
	}
	if cur == nil || !timeLess(cur, at) {
		return nil, cur
	}
	for n := 1; ; n++ {
		if pp.looping(n) {
			return nil, nil
		}
		nxt := step(cur)
		if nxt == nil || !timeLess(nxt, at) {
			return cur, nxt
		}
		cur = nxt
	}
}

// occupant resolves which node sits in the given child slot of p at
// time `at`: the original T child, advanced through every earlier rake
// that removed the slot's occupant and spliced its sibling up in place.
func (pp *propPass) occupant(p cellRef, left bool, at *Record) cellRef {
	c := pp.c
	n := c.cell(p).right
	if left {
		n = c.cell(p).left
	}
	for steps := 1; n != 0; steps++ {
		if pp.looping(steps) {
			return 0
		}
		rb := c.recs.Get(c.cell(n).removedBy)
		if rb == nil || rb.dead || rb == at || !timeLess(rb, at) {
			return n
		}
		n = rb.W
	}
	return 0
}

// touches reports whether u is a stored participant of m.
func touches(m *Record, u cellRef) bool {
	return m.V == u || m.P == u || m.W == u
}

// splice removes r from u's touch chain and eagerly repairs the
// successor's backward link, fetching r's predecessor and successor once
// each. It returns the successor, or nil when r was last or was not
// actually linked into the chain: a record orphaned by someone else's
// surgery still stores u as a participant but must not splice the chain
// again. The prev.W check matters: a stale backpointer can reference a
// record that has moved to another chain, and splicing through it would
// cross the chains. The backward repair is load-bearing too: a stale
// backpointer would let a later splice route through a record that
// already left the chain, leaving that record physically linked while
// its fields get rewritten — an alien entry in a foreign chain.
func (pp *propPass) splice(r *Record, u cellRef) *Record {
	c := pp.c
	prev := c.prevIn(r, u)
	if prev != nil {
		if prev.W != u || prev.Next != r.id {
			return nil
		}
	} else if c.cell(u).firstTouch != r.id {
		return nil
	}
	next := c.nextIn(r, u)
	if prev != nil {
		prev.Next = ref(next)
	} else {
		c.cell(u).firstTouch = ref(next)
	}
	if next != nil && touches(next, u) {
		setPrevIn(next, u, prev)
	}
	return next
}

// unchain removes r from the forward chains of all stored participants.
func (pp *propPass) unchain(r *Record) {
	if r.P == 0 {
		return // never executed: in no chain
	}
	for _, u := range [3]cellRef{r.V, r.P, r.W} {
		pp.splice(r, u)
	}
}

// kill removes a record whose gap no longer exists. Successors that
// lose r as their producer are woken structurally. r is released to the
// arena, which reuses it once the pass has drained (run recycles).
func (pp *propPass) kill(r *Record) {
	c := pp.c
	r.dead = true
	c.recs.Release(r.id)
	if r.P != 0 {
		for _, u := range [3]cellRef{r.V, r.P, r.W} {
			if next := pp.splice(r, u); next != nil {
				pp.enqueue(next, true)
			}
		}
		if x := c.cell(r.P); x.removedBy == r.id {
			x.removedBy = 0
		}
	}
	if x := c.cell(r.V); x.rec == r.id {
		x.rec = 0
		c.records--
	}
}

// enqueueGReader wakes the consumer of r's splice-parent metadata: the
// first record after r in r.W's chain that touches that node as raked
// leaf or removed parent (those re-resolve its overlay parent through
// the last W-toucher's G).
func (pp *propPass) enqueueGReader(r *Record) {
	z := pp.c.recs.Get(r.Next)
	for n := 1; z != nil && z.W == r.W; n++ {
		if pp.looping(n) {
			return
		}
		z = pp.c.recs.Get(z.Next)
	}
	pp.enqueue(z, true)
}

// reexec structurally re-executes r at its (already final) round:
// participants, splice metadata, labels and chain links are recomputed
// against the final prefix of the trace, and exactly the consumers
// whose reads changed are woken.
func (pp *propPass) reexec(r *Record) {
	c := pp.c
	wasLinked := r.P != 0
	oldP, oldW, oldG := r.P, r.W, r.G
	oldLeft, oldPrep, oldOut := r.WLeft, r.Prep, r.LwOut
	oldNext := c.recs.Get(r.Next)

	pp.unchain(r)

	v := r.V
	vPrev, _ := pp.findPos(v, r, r)
	var p cellRef
	var vLeft bool
	if vPrev != nil {
		if vPrev.W != v {
			pp.fail(ResimSanity)
			return
		}
		p = vPrev.G
		vLeft = vPrev.WLeft
	} else {
		xv := c.cell(v)
		p, vLeft = xv.parent, xv.isLeft
	}
	// A participant must be a live node of T: a departed one is a stale
	// link the pass cannot resolve.
	if p == 0 || !c.cell(p).live {
		pp.fail(ResimSanity)
		return
	}
	xp := c.cell(p)
	w := pp.occupant(p, !vLeft, r)
	if w == 0 || w == v || !c.cell(w).live {
		pp.fail(ResimSanity)
		return
	}
	pPrev, _ := pp.findPos(p, r, r)
	wPrev, wNext := pp.findPos(w, r, r)
	if pPrev != nil && pPrev.W != p {
		pp.fail(ResimSanity)
		return
	}
	if wPrev != nil && wPrev.W != w {
		pp.fail(ResimSanity)
		return
	}

	var g cellRef
	var wLeft bool
	if pPrev != nil {
		g = pPrev.G
		wLeft = pPrev.WLeft
	} else {
		g, wLeft = xp.parent, xp.isLeft
	}

	r.P, r.W, r.G, r.WLeft = p, w, g, wLeft
	if pPrev != nil {
		r.Prep = pPrev.Prep
	} else {
		r.Prep = p
	}
	if wPrev != nil {
		r.Wrep = wPrev.Prep
	} else {
		r.Wrep = w
	}
	r.Lv = c.labelFromProducer(vPrev, v)
	r.LpIn = c.labelFromProducer(pPrev, p)
	r.LwIn = c.labelFromProducer(wPrev, w)
	lpOut := r.LpIn.Compose(c.ring, xp.op.Partial(c.ring, r.Lv.B))
	r.LwOut = lpOut.Compose(c.ring, r.LwIn)

	// Relink. r ends v's and p's chains. A toucher left after either
	// position is stale but needs no wake here: it removes the parent the
	// node had just before it, which is p (the displaced removedBy
	// claimant woken below) or g (the G-reader wakes below), unless the
	// node's last earlier toucher moved its G, and that toucher's
	// re-execution woke the old G's remover. Each woken toucher that moves
	// wakes its old successor, so the rest of the tail follows.
	r.VPrev = ref(vPrev)
	if vPrev != nil {
		vPrev.Next = r.id
	} else {
		c.cell(v).firstTouch = r.id
	}
	r.PPrev = ref(pPrev)
	if pPrev != nil {
		pPrev.Next = r.id
	} else {
		xp.firstTouch = r.id
	}
	// r touches w as survivor, carrying the chain through Next.
	r.WPrev = ref(wPrev)
	if wPrev != nil {
		wPrev.Next = r.id
	} else {
		c.cell(w).firstTouch = r.id
	}
	r.Next = ref(wNext)
	if wNext != nil {
		setPrevIn(wNext, w, r)
		// Wake the successor only if its producer link actually moved: a
		// no-change re-execution of r that lands back in the same position
		// must not cascade down the chain.
		if !(wasLinked && wNext == oldNext && w == oldW) || !timeLess(r, wNext) {
			pp.enqueue(wNext, true)
		}
	}
	if oldNext != nil && oldNext != wNext && timeLess(r, oldNext) {
		// The old successor lost r as its producer. (An earlier-timed old
		// successor was already woken when r was rescheduled.)
		pp.enqueue(oldNext, true)
	}

	// Removal bookkeeping: r now removes p. The map always reflects the
	// newest final knowledge; a displaced stale claimant re-resolves.
	if wasLinked && oldP != p {
		if x := c.cell(oldP); x.removedBy == r.id {
			x.removedBy = 0
		}
	}
	if prior := c.recs.Get(xp.removedBy); prior != nil && prior != r && !prior.dead {
		if timeLess(r, prior) {
			pp.enqueue(prior, true)
		} else {
			pp.fail(ResimSanity)
			return
		}
	}
	xp.removedBy = r.id

	// Consumer wake-ups for outputs that actually changed.
	if r.LwOut != oldOut {
		if wNext != nil {
			pp.enqueue(wNext, false)
		} else {
			c.rootValue = r.LwOut.B
		}
	}
	if r.Prep != oldPrep {
		pp.enqueue(wNext, true)
	}
	if !wasLinked || w != oldW || g != oldG || wLeft != oldLeft || p != oldP {
		// The splice wrote a different slot (or a different node into
		// it): wake everything that reads either slot's occupancy or
		// either sibling's overlay parent.
		pp.enqueueGReader(r)
		for _, q := range [2]cellRef{oldG, g} {
			if q == 0 {
				continue
			}
			if rb := c.recs.Get(c.cell(q).removedBy); rb != nil && rb != r && !rb.dead && timeLess(r, rb) {
				pp.enqueue(rb, true)
			}
		}
		for _, q := range [2]cellRef{oldW, w} {
			if q == 0 || (q == oldW && !wasLinked) {
				continue
			}
			if qr := c.recs.Get(c.cell(q).rec); qr != nil && qr != r && !qr.dead && timeLess(r, qr) {
				pp.enqueue(qr, true)
			}
		}
	}
}

// healLabels is the label-only re-execution: recompute the three input
// labels from the (unchanged) producer links and push the consumer when
// the output moved. This is the historical heal step.
func (pp *propPass) healLabels(r *Record) {
	c := pp.c
	r.Lv = c.labelFromProducer(c.recs.Get(r.VPrev), r.V)
	r.LpIn = c.labelFromProducer(c.recs.Get(r.PPrev), r.P)
	r.LwIn = c.labelFromProducer(c.recs.Get(r.WPrev), r.W)
	lpOut := r.LpIn.Compose(c.ring, c.cell(r.P).op.Partial(c.ring, r.Lv.B))
	out := lpOut.Compose(c.ring, r.LwIn)
	if out == r.LwOut {
		return
	}
	r.LwOut = out
	if next := c.recs.Get(r.Next); next != nil {
		pp.enqueue(next, false)
	} else {
		c.rootValue = out.B
	}
}

// run drains the worklist in schedule order, label wounds and structural
// re-executions alike. It returns "" when the wound is healed, else the
// reason the pass must be abandoned (an invariant failed); a structural
// caller then falls back to a full re-simulation, which rebuilds all state
// and is safe after a partial repair.
func (pp *propPass) run() string {
	c := pp.c
	var lastKey uint64
	lastRound := int32(-1)
	roundCount := 0
	for len(pp.h) > 0 {
		key, r := pp.h.pop()
		if !r.dirty {
			continue
		}
		r.dirty = false
		if r.dead {
			r.structDirty = false
			continue
		}
		if key < lastKey {
			return ResimOrder // final-prefix invariant violated
		}
		lastKey = key
		if r.Round != lastRound {
			roundCount++
			lastRound = r.Round
		}
		c.machine.ChargeSpan(0, 1, 1)
		c.lastHeal.WoundRecords++
		if r.structDirty {
			r.structDirty = false
			c.lastHeal.StructRecords++
			pp.reexec(r)
		} else {
			pp.healLabels(r)
		}
		if pp.failed != "" {
			return pp.failed
		}
	}
	c.lastHeal.WoundRounds = roundCount
	c.machine.ChargeSpan(int64(roundCount), 0, 1)
	// Drained: no link reaches a killed record any more.
	c.recs.Recycle()
	return ""
}

// resimulate is the structural fallback: rebuild the whole trace and
// account for it, with the reason, in the wave's heal stats.
func (c *Contraction) resimulate(reason string) {
	c.simulate()
	c.lastHeal.Resimulated = true
	c.lastHeal.ResimReason = reason
	c.lastHeal.WoundRecords = c.records
	c.lastHeal.StructRecords = 0
	c.lastHeal.TotalRecords = c.records
}

// attached reports whether x is still in PT. A rebuild builds its
// subtree from the replaced subtree's own nodes and frees the ones it
// does not need, so every PT node is either in the tree or freed, and a
// freed one has no leaves. A node the first of a wave's two reports
// names may therefore sit at another gap inside the second rebuild,
// whose gaps are seeded anyway.
func attached(x *ptNode) bool { return x.LeafCount() > 0 }

// seedGap reschedules the gap of PT node x: its record is created if the
// gap is new, pulled out of its chains if its round moved, and queued for
// structural re-execution either way.
func (pp *propPass) seedGap(x *ptNode) {
	c := pp.c
	v := x.GapLeaf().Payload()
	r := c.recs.Get(c.cell(v).rec)
	if r == nil {
		r = c.newRecord(v, x.Height())
		c.cell(v).rec = r.id
		c.records++
	} else if int(r.Round) != x.Height() {
		// Rescheduled: pull r out of its chains now — a record linked
		// at its old position under a new time key would corrupt every
		// walk past it — and wake the successor that read its outputs
		// (it may now precede r's new firing time, so r's own
		// re-execution could come too late to wake it).
		pp.unchain(r)
		r.Round = int32(x.Height())
		if next := c.recs.Get(r.Next); next != nil {
			pp.toWake = append(pp.toWake, next)
		}
	}
	pp.toSeed = append(pp.toSeed, r)
}

// seedSubtree seeds every gap of the PT subtree under x.
func (pp *propPass) seedSubtree(x *ptNode) {
	if x.IsLeaf() {
		return
	}
	pp.seedGap(x)
	pp.seedSubtree(x.Left())
	pp.seedSubtree(x.Right())
}

// propagateStructural repairs the trace after the PT mutations whose
// rebuild diff the wave scratch holds (waveScratch.note). deleted lists T
// nodes removed from PT's leaf set (their records die); relabeled lists T
// nodes whose initial label changed because they flipped between leaf
// and internal (their first touchers re-read it).
func (c *Contraction) propagateStructural(deleted, relabeled []cellRef) {
	if c.noPropagate {
		c.resimulate(ResimGate)
		return
	}

	pp := c.beginPass()

	// Phase 1: reschedule every gap whose round or raked leaf changed.
	// Rounds are final here (PT is fully mutated) and all rewritten
	// before anything is pushed, so every heap key is stable for the
	// whole pass.
	for _, d := range c.wave.diff {
		x := c.pt.Node(d.id)
		switch {
		case !attached(x):
		case d.subtree:
			pp.seedSubtree(x)
		case !x.IsLeaf():
			pp.seedGap(x)
		}
	}
	for _, r := range pp.toSeed {
		pp.enqueue(r, true)
	}
	for _, r := range pp.toWake {
		pp.enqueue(r, true)
	}

	// Phase 2: records of departed gaps die — the deleted leaves' own
	// records, and the record of a surviving leaf that became the tail
	// (its right neighborhood was deleted, taking the gap with it).
	for _, u := range deleted {
		if r := c.recs.Get(c.cell(u).rec); r != nil {
			pp.kill(r)
		}
	}
	if t := c.pt.Tail(); t != nil {
		if r := c.recs.Get(c.cell(t.Payload()).rec); r != nil {
			pp.kill(r)
		}
	}

	// Phase 3: label wounds at T nodes whose initial label flipped
	// between Const and Identity.
	for _, u := range relabeled {
		pp.enqueue(c.recs.Get(c.cell(u).firstTouch), true)
	}

	// The one size rule, decided before the first pop: a frontier holding
	// more than half the trace is not a local wound, and re-simulating
	// costs less than propagating it.
	if pp.frontier() > c.pt.Len()/2+64 {
		c.resimulate(ResimBudget)
		return
	}
	if reason := pp.run(); reason != "" {
		c.resimulate(reason)
		return
	}

	// Refresh the root from the survivor's final toucher: mid-pass
	// surgery can retire the record that used to end the trace, so the
	// incremental root update alone is not authoritative.
	c.survivor = c.pt.Tail().Payload()
	if c.pt.Len() == 1 {
		c.rootValue = c.cell(c.survivor).value()
	} else {
		last := c.recs.Get(c.cell(c.survivor).firstTouch)
		if last == nil {
			c.resimulate(ResimSanity)
			return
		}
		for {
			nxt := c.nextIn(last, c.survivor)
			if nxt == nil {
				break
			}
			last = nxt
		}
		if last.W != c.survivor || last.LwOut.A != c.ring.Zero() {
			c.resimulate(ResimSanity)
			return
		}
		c.rootValue = last.LwOut.B
	}
	c.lastHeal.TotalRecords = c.records
}
