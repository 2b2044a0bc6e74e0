package core

import (
	"dyntc/internal/rbsts"
	"dyntc/internal/tree"
)

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
// of each raked leaf are fields of the node's entry in the Contraction's
// ID-indexed slot table, so resolving one node reads one 32-byte slot.
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
// Full re-simulation remains the fallback: full PT rebuilds, tiny trees,
// blown budgets and any detected chain inconsistency all divert to
// simulate() and say which in HealStats.ResimReason (the tests' noPropagate
// twin takes it on purpose). simulate() clears every slot's trace fields and
// builds fresh records, so it is always safe to run mid-repair.
//
// A wave allocates only the records of new gaps: the worklist (a typed
// heap keyed by the packed schedule time) and the seed scratch belong to
// the Contraction and are reused from wave to wave.

// minPropagateLeaves is the PT size below which structural waves simply
// re-simulate: the trace is so small that propagation bookkeeping costs
// more than it saves.
const minPropagateLeaves = 8

// propPass is the state of one pass over the trace, label-only or
// structural. The Contraction owns the one instance and beginPass resets
// it, so the storage of h, toSeed and toWake carries over.
type propPass struct {
	c *Contraction
	h worklist

	// steps counts chain-walk and occupant-walk steps; processed counts
	// executed records. Both are budgeted: a wound that stops looking
	// local falls back to full re-simulation.
	steps     int
	maxSteps  int
	processed int
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
	pp.steps, pp.maxSteps, pp.processed, pp.failed = 0, 0, 0, ""
	return pp
}

// fail abandons the pass; the first reason given stands.
func (pp *propPass) fail(reason string) {
	if pp.failed == "" {
		pp.failed = reason
	}
}

// step charges one chain-walk step against the pass's budget and reports
// whether the walk may go on.
func (pp *propPass) step() bool {
	pp.steps++
	if pp.maxSteps > 0 && pp.steps > pp.maxSteps {
		pp.fail(ResimBudget)
		return false
	}
	return true
}

// prevIn returns m's predecessor link for participant u.
func prevIn(m *Record, u *tree.Node) *Record {
	switch u {
	case m.V:
		return m.VPrev
	case m.P:
		return m.PPrev
	default:
		return m.WPrev
	}
}

// setPrevIn rewrites m's predecessor link for participant u.
func setPrevIn(m *Record, u *tree.Node, p *Record) {
	switch u {
	case m.V:
		m.VPrev = p
	case m.P:
		m.PPrev = p
	default:
		m.WPrev = p
	}
}

// nextIn returns m's successor in u's touch chain: only a W-touch has
// one (V and P are removed by the record, ending their chains).
func nextIn(m *Record, u *tree.Node) *Record {
	if u == m.W {
		return m.Next
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

// findPos locates the neighbors of time position `at` in u's touch
// chain, skipping the record `skip` (the one being repositioned): prev
// is the last toucher strictly before at, next the first at or after.
func (pp *propPass) findPos(u *tree.Node, at, skip *Record) (prev, next *Record) {
	step := func(m *Record) *Record {
		n := nextIn(m, u)
		if n == skip {
			n = nextIn(skip, u)
		}
		return n
	}
	cur := pp.c.slot(u).firstTouch
	if cur == skip {
		cur = nextIn(skip, u)
	}
	if cur == nil || !timeLess(cur, at) {
		return nil, cur
	}
	for {
		if !pp.step() {
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
func (pp *propPass) occupant(p *tree.Node, left bool, at *Record) *tree.Node {
	var n *tree.Node
	if left {
		n = p.Left
	} else {
		n = p.Right
	}
	for n != nil {
		if !pp.step() {
			return nil
		}
		rb := pp.c.slot(n).removedBy
		if rb == nil || rb.dead || rb == at || !timeLess(rb, at) {
			return n
		}
		n = rb.W
	}
	return nil
}

// chained reports whether r is actually linked into u's touch chain (a
// record orphaned by someone else's surgery still stores u as a
// participant but must not splice the chain again). The prev.W check
// matters: a stale backpointer can reference a record that has moved to
// another chain, and splicing through it would cross the chains.
func (pp *propPass) chained(r *Record, u *tree.Node) bool {
	prev := prevIn(r, u)
	if prev != nil {
		return prev.W == u && prev.Next == r
	}
	return pp.c.slot(u).firstTouch == r
}

// touches reports whether u is a stored participant of m.
func touches(m *Record, u *tree.Node) bool {
	return m.V == u || m.P == u || m.W == u
}

// unchain removes r from the forward chains of all stored participants
// and eagerly repairs the successors' backward links. The repair is
// load-bearing: a stale backpointer would let chained() route a later
// splice through a record that already left the chain, leaving that
// record physically linked while its fields get rewritten — an alien
// entry in a foreign chain.
func (pp *propPass) unchain(r *Record) {
	if r.P == nil {
		return // never executed: in no chain
	}
	c := pp.c
	for _, u := range [3]*tree.Node{r.V, r.P, r.W} {
		if !pp.chained(r, u) {
			continue
		}
		prev := prevIn(r, u)
		next := nextIn(r, u)
		if prev != nil {
			prev.Next = next
		} else {
			c.slot(u).firstTouch = next
		}
		if next != nil && touches(next, u) {
			setPrevIn(next, u, prev)
		}
	}
}

// kill removes a record whose gap no longer exists. Successors that
// lose r as their producer are woken structurally.
func (pp *propPass) kill(r *Record) {
	c := pp.c
	r.dead = true
	if r.P != nil {
		for _, u := range [3]*tree.Node{r.V, r.P, r.W} {
			if !pp.chained(r, u) {
				continue
			}
			prev := prevIn(r, u)
			next := nextIn(r, u)
			if prev != nil {
				prev.Next = next
			} else {
				c.slot(u).firstTouch = next
			}
			if next != nil {
				if touches(next, u) {
					setPrevIn(next, u, prev)
				}
				pp.enqueue(next, true)
			}
		}
		if s := c.slot(r.P); s.removedBy == r {
			s.removedBy = nil
		}
	}
	if s := c.slot(r.V); s.rec == r {
		s.rec = nil
		c.records--
	}
}

// wakeTail wakes every stale toucher of u orphaned when a relink
// truncated u's chain at the record before m: m and everything its
// forward links still reach within u's old chain must re-resolve.
func (pp *propPass) wakeTail(m *Record, u *tree.Node) {
	for m != nil {
		if !pp.step() {
			return
		}
		pp.enqueue(m, true)
		if m.W != u {
			return // a V- or P-touch ends the chain
		}
		m = m.Next
	}
}

// enqueueGReader wakes the consumer of r's splice-parent metadata: the
// first record after r in r.W's chain that touches that node as raked
// leaf or removed parent (those re-resolve its overlay parent through
// the last W-toucher's G).
func (pp *propPass) enqueueGReader(r *Record) {
	z := r.Next
	for z != nil && z.W == r.W {
		if !pp.step() {
			return
		}
		z = z.Next
	}
	pp.enqueue(z, true)
}

// reexec structurally re-executes r at its (already final) round:
// participants, splice metadata, labels and chain links are recomputed
// against the final prefix of the trace, and exactly the consumers
// whose reads changed are woken.
func (pp *propPass) reexec(r *Record) {
	c := pp.c
	wasLinked := r.P != nil
	oldP, oldW, oldG := r.P, r.W, r.G
	oldLeft, oldPrep, oldOut := r.WLeft, r.Prep, r.LwOut
	oldNext := r.Next

	pp.unchain(r)

	v := r.V
	vPrev, vNext := pp.findPos(v, r, r)
	var p *tree.Node
	var vLeft bool
	if vPrev != nil {
		if vPrev.W != v {
			pp.fail(ResimSanity)
			return
		}
		p = vPrev.G
		vLeft = vPrev.WLeft
	} else {
		p = v.Parent
		vLeft = p != nil && p.Left == v
	}
	if p == nil {
		pp.fail(ResimSanity)
		return
	}
	w := pp.occupant(p, !vLeft, r)
	if w == nil || w == v {
		pp.fail(ResimSanity)
		return
	}
	pPrev, pNext := pp.findPos(p, r, r)
	wPrev, wNext := pp.findPos(w, r, r)
	if pPrev != nil && pPrev.W != p {
		pp.fail(ResimSanity)
		return
	}
	if wPrev != nil && wPrev.W != w {
		pp.fail(ResimSanity)
		return
	}

	var g *tree.Node
	var wLeft bool
	if pPrev != nil {
		g = pPrev.G
		wLeft = pPrev.WLeft
	} else {
		g = p.Parent
		wLeft = g != nil && g.Left == p
	}

	pSlot := c.slot(p)
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
	lpOut := r.LpIn.Compose(c.ring, p.Op.Partial(c.ring, r.Lv.B))
	r.LwOut = lpOut.Compose(c.ring, r.LwIn)

	// Relink. r ends v's and p's chains; a chained toucher after either
	// position is stale and re-resolves away once woken.
	r.VPrev = vPrev
	if vPrev != nil {
		vPrev.Next = r
	} else {
		c.slot(v).firstTouch = r
	}
	pp.wakeTail(vNext, v)
	r.PPrev = pPrev
	if pPrev != nil {
		pPrev.Next = r
	} else {
		pSlot.firstTouch = r
	}
	pp.wakeTail(pNext, p)
	// r touches w as survivor, carrying the chain through Next.
	r.WPrev = wPrev
	if wPrev != nil {
		wPrev.Next = r
	} else {
		c.slot(w).firstTouch = r
	}
	r.Next = wNext
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
		if s := c.slot(oldP); s.removedBy == r {
			s.removedBy = nil
		}
	}
	if prior := pSlot.removedBy; prior != nil && prior != r && !prior.dead {
		if timeLess(r, prior) {
			pp.enqueue(prior, true)
		} else {
			pp.fail(ResimSanity)
			return
		}
	}
	pSlot.removedBy = r

	// Consumer wake-ups for outputs that actually changed.
	if r.LwOut != oldOut {
		if r.Next != nil {
			pp.enqueue(r.Next, false)
		} else {
			c.rootValue = r.LwOut.B
		}
	}
	if r.Prep != oldPrep {
		pp.enqueue(r.Next, true)
	}
	if !wasLinked || w != oldW || g != oldG || wLeft != oldLeft || p != oldP {
		// The splice wrote a different slot (or a different node into
		// it): wake everything that reads either slot's occupancy or
		// either sibling's overlay parent.
		pp.enqueueGReader(r)
		for _, q := range [2]*tree.Node{oldG, g} {
			if q == nil {
				continue
			}
			if rb := c.slot(q).removedBy; rb != nil && rb != r && !rb.dead && timeLess(r, rb) {
				pp.enqueue(rb, true)
			}
		}
		for _, q := range [2]*tree.Node{oldW, w} {
			if q == nil || (q == oldW && !wasLinked) {
				continue
			}
			if qr := c.slot(q).rec; qr != nil && qr != r && !qr.dead && timeLess(r, qr) {
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
	r.Lv = c.labelFromProducer(r.VPrev, r.V)
	r.LpIn = c.labelFromProducer(r.PPrev, r.P)
	r.LwIn = c.labelFromProducer(r.WPrev, r.W)
	lpOut := r.LpIn.Compose(c.ring, r.P.Op.Partial(c.ring, r.Lv.B))
	out := lpOut.Compose(c.ring, r.LwIn)
	if out == r.LwOut {
		return
	}
	r.LwOut = out
	if r.Next != nil {
		pp.enqueue(r.Next, false)
	} else {
		c.rootValue = out.B
	}
}

// run drains the worklist in schedule order, label wounds and structural
// re-executions alike. It returns "" when the wound is healed, else the
// reason the pass must be abandoned (inconsistency or blown budget); a
// structural caller then falls back to a full re-simulation, which
// rebuilds all state and is safe after a partial repair. budget 0 means
// none.
func (pp *propPass) run(budget int) string {
	c := pp.c
	var lastKey uint64
	lastRound := -1
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
		pp.processed++
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
		if budget > 0 && (pp.processed > budget || pp.steps > 16*budget) {
			return ResimBudget // wound is not local; re-simulate instead
		}
	}
	c.lastHeal.WoundRounds = roundCount
	c.machine.ChargeSpan(int64(roundCount), 0, 1)
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

// attached reports whether x is still reachable from the current PT
// root (rebuilds orphan replaced subtrees without clearing their parent
// pointers, so a plain root walk through a stale node would lie).
func (c *Contraction) attached(x *ptNode) bool {
	a := x
	for a.Parent() != nil {
		p := a.Parent()
		if p.Left() != a && p.Right() != a {
			return false
		}
		a = p
	}
	return a == c.pt.Root()
}

// seedGap reschedules the gap of PT node x: its record is created if the
// gap is new, pulled out of its chains if its round moved, and queued for
// structural re-execution either way.
func (pp *propPass) seedGap(x *ptNode) {
	c := pp.c
	v := x.GapLeaf().Payload()
	s := c.slot(v)
	r := s.rec
	if r == nil {
		r = &Record{V: v, Round: x.Height()}
		s.rec = r
		c.records++
	} else if r.Round != x.Height() {
		// Rescheduled: pull r out of its chains now — a record linked
		// at its old position under a new time key would corrupt every
		// walk past it — and wake the successor that read its outputs
		// (it may now precede r's new firing time, so r's own
		// re-execution could come too late to wake it).
		pp.unchain(r)
		r.Round = x.Height()
		if r.Next != nil {
			pp.toWake = append(pp.toWake, r.Next)
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

// propagateStructural repairs the trace after PT mutations described by
// the rebuild reports. deleted lists T nodes removed from PT's leaf set
// (their records die); relabeled lists T nodes whose initial label
// changed because they flipped between leaf and internal (their first
// touchers re-read it).
func (c *Contraction) propagateStructural(reps []rbsts.Report[*tree.Node, struct{}], deleted, relabeled []*tree.Node) {
	for _, rp := range reps {
		if rp.FullRebuild {
			c.resimulate(ResimFullRebuild)
			return
		}
	}
	if c.noPropagate {
		c.resimulate(ResimGate)
		return
	}
	if c.pt.Len() < minPropagateLeaves {
		c.resimulate(ResimTiny)
		return
	}

	pp := c.beginPass()

	// Phase 1: reschedule every gap whose round or raked leaf changed.
	// Rounds are final here (PT is fully mutated) and all rewritten
	// before anything is pushed, so every heap key is stable for the
	// whole pass.
	for _, rp := range reps {
		for _, sub := range rp.Rebuilt {
			if c.attached(sub) {
				pp.seedSubtree(sub)
			}
		}
		for _, x := range rp.HeightChanged {
			if !x.IsLeaf() && c.attached(x) {
				pp.seedGap(x)
			}
		}
		for _, x := range rp.GapRelinked {
			if !x.IsLeaf() && c.attached(x) {
				pp.seedGap(x)
			}
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
		if r := c.slot(u).rec; r != nil {
			pp.kill(r)
		}
	}
	if t := c.pt.Tail(); t != nil {
		if r := c.slot(t.Payload()).rec; r != nil {
			pp.kill(r)
		}
	}

	// Phase 3: label wounds at T nodes whose initial label flipped
	// between Const and Identity.
	for _, u := range relabeled {
		pp.enqueue(c.slot(u).firstTouch, true)
	}

	budget := c.pt.Len()/2 + 64
	pp.maxSteps = 16*budget + 4096
	if reason := pp.run(budget); reason != "" {
		c.resimulate(reason)
		return
	}

	// Refresh the root from the survivor's final toucher: mid-pass
	// surgery can retire the record that used to end the trace, so the
	// incremental root update alone is not authoritative.
	c.survivor = c.pt.Tail().Payload()
	if c.pt.Len() == 1 {
		c.rootValue = c.survivor.Value
	} else {
		last := c.slot(c.survivor).firstTouch
		if last == nil {
			c.resimulate(ResimSanity)
			return
		}
		for {
			nxt := nextIn(last, c.survivor)
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
