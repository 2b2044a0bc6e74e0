// Package core implements dynamic parallel tree contraction — the primary
// contribution of Reif & Tate, SPAA'94 (§4).
//
// A Contraction maintains, for a dynamic expression tree T over a
// commutative (semi)ring:
//
//   - PT: an RBSTS (§2) over T's leaves. Internal PT nodes correspond 1–1
//     with gaps between adjacent leaves; the paper's randomized
//     Kosaraju–Delcher schedule is equivalent to firing, at round equal to
//     the gap node's height, a rake of the leaf immediately left of the
//     gap into its current parent (within any contracted interval the
//     rightmost leaf survives). Two rakes of one round can never share a
//     parent (the paper's "never rake two siblings" guarantee: a shared
//     parent would force the separating gap's PT node to be an ancestor of
//     both gap nodes, hence strictly higher) nor compress into the same
//     sibling. One round MAY however chain — rake B compressing into the
//     node rake A removes; rounds are therefore executed in deterministic
//     raked-leaf-ID order, which is one of the valid sequentializations
//     (every prefix is a legal rake sequence), and the heal worklist uses
//     the same (round, leaf ID) key so producers always precede consumers.
//   - the rake trace: one Record per gap holding the participants (v, p, w)
//     and the paper's two label half-steps (small-rake, small-compress)
//     over (A,B) linear forms, linked by producer/consumer edges — this is
//     the rake tree RT of §4.2, stored record-wise.
//
// Dynamic requests follow the paper's self-healing paradigm:
//
//   - Label modifications (leaf values, node operations) locate the wound
//     RT(W) — the consumer chains of the changed labels — and re-execute
//     exactly those records in round order (Theorem 4.2's
//     O(log(|U| log n))-expected batch update; a single update touches one
//     O(log n) chain).
//   - Structural modifications (add/delete leaves, §4.1) first update PT
//     with the randomized-rebuild machinery of Theorems 2.2/2.3 (expected
//     O(|U| log n) rebuild size), then repair the rake trace by change
//     propagation (propagate.go): the rebuild diff seeds exactly the
//     records whose schedule or participants changed, and the same
//     round-ordered worklist that heals label wounds re-executes them —
//     structurally — against the versioned per-node touch chains. The
//     extended abstract defers this schedule repair to the never-published
//     full paper; the scheme here follows the change-propagation
//     formulation of Acar et al. (arXiv:2002.05129). A full re-simulation
//     remains as the fallback (gate off, full PT rebuilds, oversized
//     wounds), each one attributed by HealStats.ResimReason; see README
//     "Change propagation" for the design note.
//   - Value queries at arbitrary nodes replay the expansion lazily:
//     val(n) = op_n applied to the values merged into n's two children at
//     the record that removed n, a well-founded recursion over strict
//     descendants, memoized per batch.
//
// Everything the trace knows per T node — its PT leaf, the record raking
// it, the record removing it, the head of its touch chain — lives in one
// flat table indexed by tree.Node.ID (nodeSlot, 16 bytes and no
// pointers): IDs are dense and never recycled, so a lookup is a bare
// index and the three or four a re-executed record makes for one node
// share a cache line. The table grows with T.Nodes, once per wave, before
// the wave reads it. The records themselves live by value in an
// internal/arena chunked arena, the same kind that holds PT's nodes, and
// link to each other, and the slots to them, by int32 recID: a wave
// reuses the records its predecessors killed, and a re-simulation resets
// the arena and refills it in place. Records and PT leaves name T nodes
// by nodeRef (ID+1) and the slots name PT leaves by their PT node ID, so
// neither the arena nor the table holds a pointer for the collector to
// chase; the trace reads a tree.Node only for its operation, its value
// and its original links.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"dyntc/internal/arena"
	"dyntc/internal/pram"
	"dyntc/internal/rbsts"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// nodeRef names a T node by its ID plus one; 0 names none, so a zeroed
// record or slot names no node.
type nodeRef int32

// refOf names n: none for nil.
func refOf(n *tree.Node) nodeRef {
	if n == nil {
		return 0
	}
	return nodeRef(n.ID + 1)
}

// ptNode abbreviates the splitting-tree node type used throughout: PT's
// leaves carry the T leaf they stand for.
type ptNode = rbsts.Node[nodeRef, struct{}]

// Record is one rake of the contraction trace: at round Round, leaf V is
// raked into its current parent P, and P's pending form is compressed onto
// V's current sibling W. The stored labels are the inputs/outputs of the
// two half-steps; VPrev/PPrev/WPrev name the records that produced the
// inputs (none means the initial label), and Next the single record that
// consumes LwOut. Records live in the Contraction's arena and are named
// by their recID there.
type Record struct {
	V, P, W nodeRef
	Round   int32
	id      recID

	Lv    semiring.Linear // V's label at rake time (constant: A = 0)
	LpIn  semiring.Linear // P's pending form before the small-rake
	LwIn  semiring.Linear // W's form before the small-compress
	LwOut semiring.Linear // W's form after the small-compress

	// Wrep is the original node whose subtree value equals the value
	// flowing through W at rake time: the top of the removed chain merged
	// into W's position, or W itself when nothing was merged yet. It
	// drives the expansion recursion for value queries.
	Wrep nodeRef
	// Prep is the node whose subtree value flows through W's position
	// after this record (rep of P at rake time): the value rep[w] is set
	// to when the rake splices W into P's place.
	Prep nodeRef

	// G is the overlay parent of P at rake time (W's parent after the
	// splice), none when P was the overlay root. WLeft records which child
	// slot of G the record's P occupied (and W occupies afterwards). Both
	// let change propagation re-resolve overlay positions in O(1) from a
	// record's predecessor links instead of replaying the contraction.
	G     nodeRef
	WLeft bool

	VPrev, PPrev, WPrev recID
	Next                recID

	// dirty marks membership in the current wound's worklist; structDirty
	// additionally requests a full structural re-execution (participants,
	// splice metadata and chain links, not just labels). dead marks a
	// record whose gap no longer exists.
	dirty       bool
	structDirty bool
	dead        bool
}

// recID names a record of the Contraction's arena; 0 names none.
type recID int32

// nodeSlot is the trace's per-node state, one 16-byte entry per node ID
// holding no pointers. A slot is all-zero while its ID has no live node.
type nodeSlot struct {
	// ptLeaf is the PT node ID of the node's PT leaf while it is a leaf
	// of T.
	ptLeaf int32
	// rec is the record raking the node (it is a gap's left leaf).
	rec recID
	// removedBy is the record removing the node (it is internal).
	removedBy recID
	// firstTouch is the earliest record reading the node's label.
	firstTouch recID
}

// Contraction is the dynamic parallel tree contraction structure.
type Contraction struct {
	T    *tree.Tree
	ring semiring.Ring

	pt *rbsts.Tree[nodeRef, struct{}]

	// slots is indexed by tree.Node.ID and covers every ID of T.Nodes
	// (growSlots); records counts its non-none rec fields.
	slots   []nodeSlot
	records int

	// recs holds every record the slots and links name.
	recs arena.Arena[Record, recID]

	rootValue int64
	survivor  nodeRef

	machine *pram.Machine

	// pass is the worklist and scratch of the wave being healed, and wave
	// the request and PT-diff storage of a structural wave, both reused
	// from wave to wave.
	pass propPass
	wave waveScratch

	// noPropagate forces structural updates down the full re-simulation
	// path (ResimGate). Only this package's tests set it: the
	// re-simulating twin is their reference for change propagation.
	noPropagate bool

	// stats of the most recent operation, for the experiments.
	lastHeal HealStats
}

// AddOp grows a leaf into an operation node with two fresh leaf children
// (§4.1 "add two new children below a current leaf").
type AddOp struct {
	Leaf     *tree.Node
	Op       semiring.Op
	LeftVal  int64
	RightVal int64
}

// RemoveOp collapses an internal node whose children are both leaves back
// into a leaf with the given value (§4.1 "delete two leaf children").
type RemoveOp struct {
	Node     *tree.Node
	NewValue int64
}

// HealStats reports the cost of the most recent dynamic operation.
type HealStats struct {
	// WoundRecords is the number of rake records re-executed (label-only
	// and structural together). A full re-simulation counts every record.
	WoundRecords int
	// WoundRounds is the number of distinct rounds among them (the span of
	// the healing phase in the PRAM model).
	WoundRounds int
	// StructRecords is the number of records structurally re-executed by
	// change propagation (participants and links recomputed, not just
	// labels). Zero for label-only waves and for full re-simulations.
	StructRecords int
	// TotalRecords is the trace size (leaves-1) after the operation, the
	// denominator for the records-touched ratio.
	TotalRecords int
	// Resimulated reports that the whole trace was rebuilt (the structural
	// fallback path: gate off, full PT rebuild, or oversized wound).
	Resimulated bool
	// ResimReason names why, one of ResimReasons; empty when the wave did
	// not re-simulate.
	ResimReason string
	// RebuildLeaves is the total size of PT subtree rebuilds (Theorem 2.2's
	// random variable S).
	RebuildLeaves int
}

// The reasons a structural wave falls back to a full re-simulation.
const (
	ResimGate        = "gate"         // change propagation switched off (tests only)
	ResimFullRebuild = "full_rebuild" // PT rebuilt from its root
	ResimTiny        = "tiny"         // fewer than minPropagateLeaves leaves
	ResimOrder       = "order"        // a record popped before one already executed
	ResimBudget      = "budget"       // the wound stopped being local
	ResimSanity      = "sanity"       // a touch chain contradicted itself
)

// ResimReasons lists every value HealStats.ResimReason takes on a
// re-simulated wave.
var ResimReasons = [...]string{ResimGate, ResimFullRebuild, ResimTiny, ResimOrder, ResimBudget, ResimSanity}

// New builds a Contraction over the given expression tree. The seed drives
// all of PT's randomness. The machine (nil = sequential) meters every
// parallel phase.
func New(t *tree.Tree, seed uint64, m *pram.Machine) *Contraction {
	if m == nil {
		m = pram.Sequential()
	}
	c := &Contraction{
		T:       t,
		ring:    t.Ring,
		machine: m,
	}
	c.pass.c = c
	leaves := t.Leaves()
	refs := make([]nodeRef, len(leaves))
	for i, l := range leaves {
		refs[i] = refOf(l)
	}
	c.pt = rbsts.New[nodeRef, struct{}](seed, nil, nil, refs)
	c.growSlots()
	for l := c.pt.Head(); l != nil; l = l.Next() {
		c.slot(l.Payload()).ptLeaf = l.ID()
	}
	c.simulate()
	return c
}

// node resolves a reference: nil for none.
func (c *Contraction) node(u nodeRef) *tree.Node {
	if u == 0 {
		return nil
	}
	return c.T.Nodes[u-1]
}

// slot returns u's entry of the slot table; u must not be none.
func (c *Contraction) slot(u nodeRef) *nodeSlot { return &c.slots[u-1] }

// ptLeaf returns the PT leaf of T leaf u (nil when u is not a leaf of T).
func (c *Contraction) ptLeaf(u nodeRef) *ptNode { return c.pt.Node(c.slot(u).ptLeaf) }

// ref is the link naming r: none for nil.
func ref(r *Record) recID {
	if r == nil {
		return 0
	}
	return r.id
}

// newRecord takes a blank record from the arena for the gap right of T
// leaf v, raked at the given round.
func (c *Contraction) newRecord(v nodeRef, round int) *Record {
	id, r := c.recs.Alloc()
	r.id, r.V, r.Round = id, v, int32(round)
	return r
}

// growSlots extends the slot table over every ID in T.Nodes. It
// reallocates only when T.Nodes itself has, and to the same capacity, so
// the table's memory follows the tree's instead of doubling past it.
func (c *Contraction) growSlots() {
	n := len(c.T.Nodes)
	if n <= cap(c.slots) {
		c.slots = c.slots[:n] // never shrinks: IDs are not recycled
		return
	}
	grown := make([]nodeSlot, n, cap(c.T.Nodes))
	copy(grown, c.slots)
	c.slots = grown
}

// Machine returns the PRAM machine metering this contraction.
func (c *Contraction) Machine() *pram.Machine { return c.machine }

// LastHeal returns cost statistics of the most recent dynamic operation.
func (c *Contraction) LastHeal() HealStats { return c.lastHeal }

// RootValue returns the value of the whole expression (exactly maintained).
func (c *Contraction) RootValue() int64 { return c.rootValue }

// PTDepth returns the current depth (= contraction round count) of PT.
func (c *Contraction) PTDepth() int {
	if c.pt.Root() == nil {
		return 0
	}
	return c.pt.Root().Height()
}

// Records returns the number of rake records (= leaves - 1).
func (c *Contraction) Records() int { return c.records }

// simulate rebuilds the entire rake trace from the current T and PT: the
// §4.2 randomized contraction. Records are processed in (round, leaf ID)
// order; rounds are metered as parallel steps grouped by round. The
// arena is reset and refilled in place, so a warm re-simulation
// allocates no records.
func (c *Contraction) simulate() {
	n := len(c.T.Nodes)
	for i := range c.slots {
		s := &c.slots[i]
		s.rec, s.removedBy, s.firstTouch = 0, 0, 0
	}
	c.records = 0
	c.recs.Reset(max(c.pt.Len()-1, 0))

	if c.pt.Len() == 0 {
		c.rootValue = c.ring.Zero()
		c.survivor = 0
		return
	}
	if c.pt.Len() == 1 {
		c.survivor = c.pt.Head().Payload()
		c.rootValue = c.node(c.survivor).Value
		return
	}

	// Overlay state of the contracting tree: one entry per live node, in
	// ID order, linked to each other by entry index (-1 = none); at maps
	// a node ID to its entry. IDs are never recycled, so after long churn
	// most of them are dead: per-ID state here would dwarf the tree it
	// describes. Each entry copies what the contraction reads of its node,
	// so the loop below follows int32 links through one array instead of
	// pointers through the heap.
	type entry struct {
		node, rep           nodeRef
		parent, left, right int32
		op                  semiring.Op
		label               semiring.Linear
		lastTouch           recID
	}
	at := make([]int32, n)
	live := 0
	for id, nd := range c.T.Nodes {
		if nd != nil {
			at[id] = int32(live)
			live++
		}
	}
	index := func(nd *tree.Node) int32 {
		if nd == nil {
			return -1
		}
		return at[nd.ID]
	}
	ents := make([]entry, 0, live)
	for _, nd := range c.T.Nodes {
		if nd == nil {
			continue
		}
		e := entry{node: refOf(nd), rep: refOf(nd),
			parent: index(nd.Parent), left: index(nd.Left), right: index(nd.Right), op: nd.Op}
		if nd.IsLeaf() {
			e.label = semiring.Const(c.ring, nd.Value)
		} else {
			e.label = semiring.Identity(c.ring)
		}
		ents = append(ents, e)
	}

	// Gather the gap records and order them by schedule time (round, then
	// raked-leaf ID; the tiebreak is arbitrary but deterministic, as
	// same-round rakes are independent). The key is packed once, so the
	// sort never follows a pointer.
	type item struct {
		key uint64
		r   *Record
		v   int32 // V's entry
	}
	items := make([]item, 0, c.pt.Len()-1)
	for l := c.pt.Head(); l.Next() != nil; l = l.Next() {
		r := c.newRecord(l.Payload(), l.GapNode().Height())
		items = append(items, item{timeKey(r), r, at[r.V-1]})
	}
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.key, b.key) })

	// touch appends r to e's touch chain and returns the previous toucher.
	touch := func(r *Record, e *entry) recID {
		prev := e.lastTouch
		e.lastTouch = r.id
		if prev != 0 {
			c.recs.At(prev).Next = r.id
		} else {
			c.slot(e.node).firstTouch = r.id
		}
		return prev
	}

	// Execute rounds in order, metering one parallel step per round.
	i := 0
	for i < len(items) {
		round := items[i].key >> 32
		j := i
		for j < len(items) && items[j].key>>32 == round {
			j++
		}
		c.machine.Charge(j - i)
		for _, it := range items[i:j] {
			r := it.r
			ev := &ents[it.v]
			pi := ev.parent
			ep := &ents[pi]
			wi := ep.left
			if wi == it.v {
				wi = ep.right
			}
			ew := &ents[wi]
			r.P, r.W = ep.node, ew.node
			r.VPrev = touch(r, ev)
			r.PPrev = touch(r, ep)
			r.WPrev = touch(r, ew)
			r.Lv, r.LpIn, r.LwIn = ev.label, ep.label, ew.label
			// small-rake then small-compress (§4.2).
			lpOut := r.LpIn.Compose(c.ring, ep.op.Partial(c.ring, r.Lv.B))
			r.LwOut = lpOut.Compose(c.ring, r.LwIn)
			ew.label = r.LwOut
			r.Wrep, r.Prep = ew.rep, ep.rep
			ew.rep = ep.rep
			// Splice w into p's place.
			gi := ep.parent
			ew.parent = gi
			if gi >= 0 {
				eg := &ents[gi]
				r.G = eg.node
				if eg.left == pi {
					eg.left = wi
					r.WLeft = true
				} else {
					eg.right = wi
				}
			}
			c.slot(ev.node).rec = r.id
			c.slot(ep.node).removedBy = r.id
		}
		i = j
	}
	c.records = len(items)

	c.survivor = c.pt.Tail().Payload()
	final := ents[at[c.survivor-1]].label
	if final.A != c.ring.Zero() {
		panic("core: survivor label is not constant")
	}
	c.rootValue = final.B
}

// Validate checks trace invariants against the current T and PT (tests).
func (c *Contraction) Validate() error {
	if c.pt.Len() != c.T.LeafCount() {
		return fmt.Errorf("core: PT has %d leaves, T has %d", c.pt.Len(), c.T.LeafCount())
	}
	if err := c.pt.Validate(); err != nil {
		return err
	}
	// PT leaf payloads must be exactly T's leaves in order.
	tl := c.T.Leaves()
	i := 0
	for l := c.pt.Head(); l != nil; l = l.Next() {
		if i >= len(tl) || l.Payload() != refOf(tl[i]) {
			return fmt.Errorf("core: PT leaf %d does not match T leaf order", i)
		}
		if c.slot(l.Payload()).ptLeaf != l.ID() {
			return fmt.Errorf("core: ptLeaf slot stale at %d", i)
		}
		i++
	}
	// The slot table covers exactly T's IDs, holds nothing for an ID
	// without a live node, and every entry points back at its own node.
	if len(c.slots) != len(c.T.Nodes) {
		return fmt.Errorf("core: %d slots for %d node IDs", len(c.slots), len(c.T.Nodes))
	}
	recs := 0
	for id := range c.slots {
		s, nd := &c.slots[id], nodeRef(id+1)
		if c.T.Nodes[id] == nil {
			if *s != (nodeSlot{}) {
				return fmt.Errorf("core: slot %d of a departed node is not zero", id)
			}
			continue
		}
		if pl := c.pt.Node(s.ptLeaf); pl != nil && (!pl.IsLeaf() || pl.Payload() != nd) {
			return fmt.Errorf("core: slot %d: ptLeaf carries another node", id)
		}
		// No slot names a dead record: killed records are reused.
		for _, l := range [3]recID{s.rec, s.removedBy, s.firstTouch} {
			if err := c.checkLink(l); err != nil {
				return fmt.Errorf("core: slot %d: %w", id, err)
			}
		}
		if s.removedBy != 0 && c.recs.Get(s.removedBy).P != nd {
			return fmt.Errorf("core: slot %d: removedBy removes another node", id)
		}
		if s.firstTouch != 0 && !touches(c.recs.Get(s.firstTouch), nd) {
			return fmt.Errorf("core: slot %d: firstTouch does not touch the node", id)
		}
		if s.rec == 0 {
			continue
		}
		r := c.recs.Get(s.rec)
		recs++
		if r.V != nd || r.id != s.rec {
			return fmt.Errorf("core: slot %d: rec rakes another node", id)
		}
		// Every record's labels must recompose.
		lpOut := r.LpIn.Compose(c.ring, c.node(r.P).Op.Partial(c.ring, r.Lv.B))
		if lpOut.Compose(c.ring, r.LwIn) != r.LwOut {
			return fmt.Errorf("core: record labels inconsistent at leaf %d", id)
		}
		// No link of a live record reaches a dead one.
		for _, l := range [4]recID{r.VPrev, r.PPrev, r.WPrev, r.Next} {
			if err := c.checkLink(l); err != nil {
				return fmt.Errorf("core: record of leaf %d: %w", id, err)
			}
		}
	}
	if want := max(0, c.pt.Len()-1); recs != c.records || recs != want {
		return fmt.Errorf("core: %d records, counter %d, want %d for %d leaves", recs, c.records, want, c.pt.Len())
	}
	return nil
}

// checkLink reports a link that names neither none nor a live record:
// one handed out, not dead, and the record its raked leaf's slot holds.
// Once a pass has drained no link may reach a dead record, which is what
// makes reusing killed records safe.
func (c *Contraction) checkLink(l recID) error {
	if l == 0 {
		return nil
	}
	if l < 0 || l >= c.recs.End() {
		return fmt.Errorf("link %d outside the arena's %d records", l, c.recs.End())
	}
	r := c.recs.At(l)
	if r.dead || r.V == 0 || c.slot(r.V).rec != l {
		return fmt.Errorf("link %d reaches a dead record", l)
	}
	return nil
}
