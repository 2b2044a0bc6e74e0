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
// flat table indexed by tree.Node.ID (nodeSlot): IDs are dense and never
// recycled, so a lookup is a bare index and the three or four a
// re-executed record makes for one node share a cache line. The table
// grows with T.Nodes, once per wave, before the wave reads it.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"dyntc/internal/pram"
	"dyntc/internal/rbsts"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// ptNode abbreviates the splitting-tree node type used throughout.
type ptNode = rbsts.Node[*tree.Node, struct{}]

// Record is one rake of the contraction trace: at round Round, leaf V is
// raked into its current parent P, and P's pending form is compressed onto
// V's current sibling W. The stored labels are the inputs/outputs of the
// two half-steps; VPrev/PPrev/WPrev point at the records that produced the
// inputs (nil means the initial label), and Next at the single record that
// consumes LwOut.
type Record struct {
	V, P, W *tree.Node
	Round   int

	Lv    semiring.Linear // V's label at rake time (constant: A = 0)
	LpIn  semiring.Linear // P's pending form before the small-rake
	LwIn  semiring.Linear // W's form before the small-compress
	LwOut semiring.Linear // W's form after the small-compress

	// Wrep is the original node whose subtree value equals the value
	// flowing through W at rake time: the top of the removed chain merged
	// into W's position, or W itself when nothing was merged yet. It
	// drives the expansion recursion for value queries.
	Wrep *tree.Node
	// Prep is the node whose subtree value flows through W's position
	// after this record (rep of P at rake time): the value rep[w] is set
	// to when the rake splices W into P's place.
	Prep *tree.Node

	// G is the overlay parent of P at rake time (W's parent after the
	// splice), nil when P was the overlay root. WLeft records which child
	// slot of G the record's P occupied (and W occupies afterwards). Both
	// let change propagation re-resolve overlay positions in O(1) from a
	// record's predecessor links instead of replaying the contraction.
	G     *tree.Node
	WLeft bool

	VPrev, PPrev, WPrev *Record
	Next                *Record

	// dirty marks membership in the current wound's worklist; structDirty
	// additionally requests a full structural re-execution (participants,
	// splice metadata and chain links, not just labels). dead marks a
	// record whose gap no longer exists.
	dirty       bool
	structDirty bool
	dead        bool
}

// nodeSlot is the trace's per-node state, one 32-byte entry per node ID.
// A slot is all-zero while its ID has no live node.
type nodeSlot struct {
	// ptLeaf is the node's PT leaf while it is a leaf of T.
	ptLeaf *ptNode
	// rec is the record raking the node (it is a gap's left leaf).
	rec *Record
	// removedBy is the record removing the node (it is internal).
	removedBy *Record
	// firstTouch is the earliest record reading the node's label.
	firstTouch *Record
}

// Contraction is the dynamic parallel tree contraction structure.
type Contraction struct {
	T    *tree.Tree
	ring semiring.Ring

	pt *rbsts.Tree[*tree.Node, struct{}]

	// slots is indexed by tree.Node.ID and covers every ID of T.Nodes
	// (growSlots); records counts its non-nil rec fields.
	slots   []nodeSlot
	records int

	rootValue int64
	survivor  *tree.Node

	machine *pram.Machine

	// pass is the worklist and scratch of the wave being healed, reused
	// from wave to wave.
	pass propPass

	// noPropagate forces structural updates down the full re-simulation
	// path (ResimGate). Only this package's tests set it: the
	// re-simulating twin is their reference for change propagation.
	noPropagate bool

	// stats of the most recent operation, for the experiments.
	lastHeal HealStats
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
	c.pt = rbsts.New[*tree.Node, struct{}](seed, nil, nil, t.Leaves())
	c.growSlots()
	for l := c.pt.Head(); l != nil; l = l.Next() {
		c.slot(l.Payload()).ptLeaf = l
	}
	c.simulate()
	return c
}

// slot returns n's entry of the slot table.
func (c *Contraction) slot(n *tree.Node) *nodeSlot { return &c.slots[n.ID] }

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
// order; rounds are metered as parallel steps grouped by round.
func (c *Contraction) simulate() {
	n := len(c.T.Nodes)
	for i := range c.slots {
		s := &c.slots[i]
		s.rec, s.removedBy, s.firstTouch = nil, nil, nil
	}
	c.records = 0

	if c.pt.Len() == 0 {
		c.rootValue = c.ring.Zero()
		c.survivor = nil
		return
	}
	if c.pt.Len() == 1 {
		c.survivor = c.pt.Head().Payload()
		c.rootValue = c.survivor.Value
		return
	}

	// Gather the gap records in schedule order.
	recs := make([]*Record, 0, c.pt.Len()-1)
	for l := c.pt.Head(); l.Next() != nil; l = l.Next() {
		recs = append(recs, &Record{
			V:     l.Payload(),
			Round: l.GapNode().Height(),
		})
	}
	sortRecords(recs)

	// Overlay state of the contracting tree, one entry per live node;
	// at maps a node ID to its entry. IDs are never recycled, so after
	// long churn most of them are dead: per-ID state here would dwarf the
	// tree it describes.
	type overlayNode struct {
		parent, left, right *tree.Node
		rep                 *tree.Node
		label               semiring.Linear
		lastTouch           *Record
	}
	at := make([]int32, n)
	overlay := make([]overlayNode, 0, c.T.Len())
	for _, nd := range c.T.Nodes {
		if nd == nil {
			continue
		}
		at[nd.ID] = int32(len(overlay))
		o := overlayNode{parent: nd.Parent, left: nd.Left, right: nd.Right, rep: nd}
		if nd.IsLeaf() {
			o.label = semiring.Const(c.ring, nd.Value)
		} else {
			o.label = semiring.Identity(c.ring)
		}
		overlay = append(overlay, o)
	}

	// touch appends r to nd's touch chain and returns the previous toucher.
	touch := func(r *Record, nd *tree.Node, o *overlayNode) *Record {
		prev := o.lastTouch
		o.lastTouch = r
		if prev != nil {
			prev.Next = r
		} else {
			c.slot(nd).firstTouch = r
		}
		return prev
	}

	// Execute rounds in order, metering one parallel step per round.
	i := 0
	for i < len(recs) {
		j := i
		for j < len(recs) && recs[j].Round == recs[i].Round {
			j++
		}
		c.machine.Charge(j - i)
		for _, r := range recs[i:j] {
			v := r.V
			ov := &overlay[at[v.ID]]
			p := ov.parent
			op := &overlay[at[p.ID]]
			w := op.left
			if w == v {
				w = op.right
			}
			ow := &overlay[at[w.ID]]
			r.P, r.W = p, w
			r.VPrev = touch(r, v, ov)
			r.PPrev = touch(r, p, op)
			r.WPrev = touch(r, w, ow)
			r.Lv, r.LpIn, r.LwIn = ov.label, op.label, ow.label
			// small-rake then small-compress (§4.2).
			lpOut := r.LpIn.Compose(c.ring, p.Op.Partial(c.ring, r.Lv.B))
			r.LwOut = lpOut.Compose(c.ring, r.LwIn)
			ow.label = r.LwOut
			r.Wrep, r.Prep = ow.rep, op.rep
			ow.rep = op.rep
			// Splice w into p's place.
			g := op.parent
			ow.parent = g
			r.G = g
			if g != nil {
				og := &overlay[at[g.ID]]
				if og.left == p {
					og.left = w
					r.WLeft = true
				} else {
					og.right = w
					r.WLeft = false
				}
			}
			c.slot(v).rec = r
			c.slot(p).removedBy = r
		}
		i = j
	}
	c.records = len(recs)

	c.survivor = c.pt.Tail().Payload()
	final := overlay[at[c.survivor.ID]].label
	if final.A != c.ring.Zero() {
		panic("core: survivor label is not constant")
	}
	c.rootValue = final.B
}

// sortRecords orders records by (round, raked-leaf ID); the ID tiebreak is
// arbitrary but deterministic (same-round rakes are independent).
func sortRecords(recs []*Record) {
	slices.SortFunc(recs, func(a, b *Record) int { return cmp.Compare(timeKey(a), timeKey(b)) })
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
		if i >= len(tl) || l.Payload() != tl[i] {
			return fmt.Errorf("core: PT leaf %d does not match T leaf order", i)
		}
		if c.slot(l.Payload()).ptLeaf != l {
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
		s, nd := &c.slots[id], c.T.Nodes[id]
		if nd == nil {
			if *s != (nodeSlot{}) {
				return fmt.Errorf("core: slot %d of a departed node is not zero", id)
			}
			continue
		}
		if s.ptLeaf != nil && s.ptLeaf.Payload() != nd {
			return fmt.Errorf("core: slot %d: ptLeaf carries another node", id)
		}
		if s.removedBy != nil && s.removedBy.P != nd {
			return fmt.Errorf("core: slot %d: removedBy removes another node", id)
		}
		if s.firstTouch != nil && !touches(s.firstTouch, nd) {
			return fmt.Errorf("core: slot %d: firstTouch does not touch the node", id)
		}
		r := s.rec
		if r == nil {
			continue
		}
		recs++
		if r.V != nd {
			return fmt.Errorf("core: slot %d: rec rakes another node", id)
		}
		// Every record's labels must recompose.
		lpOut := r.LpIn.Compose(c.ring, r.P.Op.Partial(c.ring, r.Lv.B))
		if lpOut.Compose(c.ring, r.LwIn) != r.LwOut {
			return fmt.Errorf("core: record labels inconsistent at leaf %d", id)
		}
	}
	if want := max(0, c.pt.Len()-1); recs != c.records || recs != want {
		return fmt.Errorf("core: %d records, counter %d, want %d for %d leaves", recs, c.records, want, c.pt.Len())
	}
	return nil
}
