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
//     formulation of Acar et al. (arXiv:2002.05129). One rule, checked
//     once before any record re-executes, sends a wave to a full
//     re-simulation instead: its frontier holds more than half the trace.
//     A broken invariant (and the tests' gate) re-simulates too; each is
//     attributed by HealStats.ResimReason. See README "Change
//     propagation" for the design note.
//   - Value queries at arbitrary nodes replay the expansion lazily:
//     val(n) = op_n applied to the values merged into n's two children at
//     the record that removed n, a well-founded recursion over strict
//     descendants, memoized per batch.
//
// The trace never reads T's nodes. It mirrors T in a flat cell table: one
// pointer-free 64-byte cell per live T node, holding the node's links as
// cell references, whether it is its parent's left child, its operation
// or value, and everything the trace knows about it — its PT leaf, the
// record raking it, the record removing it, the head of its touch chain —
// so a re-executed record reads one cache line per participant. Cells are
// recycled through a LIFO free list, so the table follows the live tree,
// not the IDs it has issued; what grows per tree.Node.ID is a 4-byte map
// from ID to cell. AddLeaves, RemoveLeaves, SetValues, SetOps and
// ValuesBatch map each node they are handed once and mirror every
// mutation of T into its cell. The records live by value in an
// internal/arena chunked arena, the same kind that holds PT's nodes, and
// link to each other, and the cells to them, by int32 recID: a wave reuses
// the records its predecessors killed, and a re-simulation resets the
// arena and refills it in place. Records and PT leaves name T nodes by
// cellRef and the cells name PT leaves by their PT node ID, so neither the
// arena nor the table holds a pointer for the collector to chase. The
// schedule key stays (round, raked leaf's tree.Node.ID): a record carries
// its raked leaf's ID for it.
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

// cellRef names a cell of the Contraction's cell table by its index plus
// one; 0 names none, so a zeroed record or cell names no node.
type cellRef int32

// ptNode abbreviates the splitting-tree node type used throughout: PT's
// leaves carry the cell of the T leaf they stand for.
type ptNode = rbsts.Node[cellRef, struct{}]

// Record is one rake of the contraction trace: at round Round, leaf V is
// raked into its current parent P, and P's pending form is compressed onto
// V's current sibling W. The stored labels are the inputs/outputs of the
// two half-steps; VPrev/PPrev/WPrev name the records that produced the
// inputs (none means the initial label), and Next the single record that
// consumes LwOut. Records live in the Contraction's arena and are named
// by their recID there.
type Record struct {
	V, P, W cellRef
	Round   int32
	// vid is V's tree.Node.ID, the tiebreak of the schedule key (timeKey).
	vid int32
	id  recID

	Lv    semiring.Linear // V's label at rake time (constant: A = 0)
	LpIn  semiring.Linear // P's pending form before the small-rake
	LwIn  semiring.Linear // W's form before the small-compress
	LwOut semiring.Linear // W's form after the small-compress

	// Wrep is the original node whose subtree value equals the value
	// flowing through W at rake time: the top of the removed chain merged
	// into W's position, or W itself when nothing was merged yet. It
	// drives the expansion recursion for value queries.
	Wrep cellRef
	// Prep is the node whose subtree value flows through W's position
	// after this record (rep of P at rake time): the value rep[w] is set
	// to when the rake splices W into P's place.
	Prep cellRef

	// G is the overlay parent of P at rake time (W's parent after the
	// splice), none when P was the overlay root. WLeft records which child
	// slot of G the record's P occupied (and W occupies afterwards). Both
	// let change propagation re-resolve overlay positions in O(1) from a
	// record's predecessor links instead of replaying the contraction.
	G     cellRef
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

// cell mirrors one live T node and holds the trace's state for it, in 64
// bytes and no pointers. A cell on the free list is all zero.
type cell struct {
	// op is the node's operation while it is internal; a leaf keeps its
	// value in op.A instead, with B and C zero.
	op semiring.Op
	// id is the node's tree.Node.ID.
	id int32
	// parent, left and right mirror the node's links in T.
	parent, left, right cellRef
	// ptLeaf is the PT node ID of the node's PT leaf while it is a leaf
	// of T.
	ptLeaf int32
	// rec is the record raking the node (it is a gap's left leaf).
	rec recID
	// removedBy is the record removing the node (it is internal).
	removedBy recID
	// firstTouch is the earliest record reading the node's label.
	firstTouch recID
	// isLeft reports that the node is its parent's left child.
	isLeft bool
	// live is cleared when the node leaves T. Its cell keeps the trace
	// fields until the wave that removed it has repaired the trace, and
	// is freed then.
	live bool
}

func (x *cell) isLeaf() bool { return x.left == 0 }

// value is a leaf's value.
func (x *cell) value() int64 { return x.op.A }

// label is the node's initial label: its value as a constant form while
// it is a leaf, the identity while it is internal.
func (x *cell) label(r semiring.Ring) semiring.Linear {
	if x.isLeaf() {
		return semiring.Const(r, x.value())
	}
	return semiring.Identity(r)
}

// Contraction is the dynamic parallel tree contraction structure.
type Contraction struct {
	T    *tree.Tree
	ring semiring.Ring

	pt *rbsts.Tree[cellRef, struct{}]

	// cells mirrors T's live nodes, plus the free cells listed in free
	// (last freed, first reused). cellOf maps every ID of T.Nodes to its
	// node's cell, none once the node has left T (growIDs). records
	// counts the cells' non-none rec fields.
	cells   []cell
	free    []cellRef
	cellOf  []cellRef
	records int

	// recs holds every record the cells and links name.
	recs arena.Arena[Record, recID]

	rootValue int64
	survivor  cellRef

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
	// Resimulated reports that the whole trace was rebuilt instead of
	// propagated: the wave's frontier held more than half the trace, an
	// invariant failed, or the gate is off.
	Resimulated bool
	// ResimReason names why, one of ResimReasons; empty when the wave did
	// not re-simulate.
	ResimReason string
	// RebuildLeaves is the total size of PT subtree rebuilds (Theorem 2.2's
	// random variable S).
	RebuildLeaves int
}

// The reasons a structural wave re-simulates. budget is the one size rule;
// order and sanity are invariant failures; gate is the tests' twin.
const (
	ResimGate   = "gate"   // change propagation switched off (tests only)
	ResimOrder  = "order"  // a record popped before one already executed
	ResimBudget = "budget" // the frontier held more than half the trace
	ResimSanity = "sanity" // a touch chain contradicted itself or looped
)

// ResimReasons lists every value HealStats.ResimReason takes on a
// re-simulated wave.
var ResimReasons = [...]string{ResimGate, ResimOrder, ResimBudget, ResimSanity}

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
	// One cell per live node, in ID order, then their links.
	c.growIDs()
	c.cells = make([]cell, 0, t.Len())
	for _, n := range t.Nodes {
		if n != nil {
			c.newCell(n)
		}
	}
	for i := range c.cells {
		x := &c.cells[i]
		n := t.Nodes[x.id]
		x.parent, x.left, x.right = c.cellFor(n.Parent), c.cellFor(n.Left), c.cellFor(n.Right)
		x.isLeft = n.Parent != nil && n.Parent.Left == n
	}
	leaves := t.Leaves()
	refs := make([]cellRef, len(leaves))
	for i, l := range leaves {
		refs[i] = c.cellFor(l)
	}
	c.pt = rbsts.New[cellRef, struct{}](seed, nil, nil, refs)
	for l := c.pt.Head(); l != nil; l = l.Next() {
		c.cell(l.Payload()).ptLeaf = l.ID()
	}
	c.simulate()
	return c
}

// cell returns u's cell; u must not be none.
func (c *Contraction) cell(u cellRef) *cell { return &c.cells[u-1] }

// cellFor maps T node n to its cell: none for nil and for a node that
// has left T.
func (c *Contraction) cellFor(n *tree.Node) cellRef {
	if n == nil || n.ID >= len(c.cellOf) {
		return 0
	}
	return c.cellOf[n.ID]
}

// ptLeaf returns the PT leaf of T leaf u (nil when u is not a leaf of T).
func (c *Contraction) ptLeaf(u cellRef) *ptNode { return c.pt.Node(c.cell(u).ptLeaf) }

// liveLeaf maps T node n to its cell and PT leaf; the leaf is nil unless
// n is a live leaf of T.
func (c *Contraction) liveLeaf(n *tree.Node) (cellRef, *ptNode) {
	u := c.cellFor(n)
	if u == 0 {
		return 0, nil
	}
	return u, c.ptLeaf(u)
}

// newCell takes a cell for live T node n, the last one freed if any, and
// maps n's ID to it. It mirrors n's ID and value or operation; the caller
// sets the links.
func (c *Contraction) newCell(n *tree.Node) cellRef {
	var u cellRef
	if k := len(c.free); k > 0 {
		u = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		if len(c.cells) == cap(c.cells) {
			// Grow by an eighth, not append's quarter: the table holds a
			// live tree, which mostly drifts around its size.
			grown := make([]cell, len(c.cells), len(c.cells)+len(c.cells)/8+64)
			copy(grown, c.cells)
			c.cells = grown
		}
		c.cells = append(c.cells, cell{})
		u = cellRef(len(c.cells))
	}
	x := c.cell(u)
	*x = cell{id: int32(n.ID), live: true}
	if n.IsLeaf() {
		x.op = semiring.Op{A: n.Value}
	} else {
		x.op = n.Op
	}
	c.cellOf[n.ID] = u
	return u
}

// depart unmaps the cell of a node that has just left T. The cell keeps
// its trace fields, which the repair of the trace still reads and clears,
// until freeCell.
func (c *Contraction) depart(u cellRef) {
	x := c.cell(u)
	x.live = false
	c.cellOf[x.id] = 0
}

// freeCell puts a departed node's cell on the free list once the trace is
// repaired. It clears what mirrors T; the trace fields are clear by then
// (Validate checks that every free cell is zero), and newCell overwrites
// the whole cell anyway.
func (c *Contraction) freeCell(u cellRef) {
	x := c.cell(u)
	x.op, x.id, x.parent, x.left, x.right, x.isLeft = semiring.Op{}, 0, 0, 0, 0, false
	c.free = append(c.free, u)
}

// ref is the link naming r: none for nil.
func ref(r *Record) recID {
	if r == nil {
		return 0
	}
	return r.id
}

// newRecord takes a blank record from the arena for the gap right of T
// leaf v, raked at the given round.
func (c *Contraction) newRecord(v cellRef, round int) *Record {
	id, r := c.recs.Alloc()
	r.id, r.V, r.vid, r.Round = id, v, c.cell(v).id, int32(round)
	return r
}

// growIDs extends the ID map over every ID in T.Nodes. It reallocates
// only when T.Nodes itself has, and to the same capacity, so the map's
// memory follows the tree's instead of doubling past it.
func (c *Contraction) growIDs() {
	n := len(c.T.Nodes)
	if n <= cap(c.cellOf) {
		c.cellOf = c.cellOf[:n] // never shrinks: IDs are not recycled
		return
	}
	grown := make([]cellRef, n, cap(c.T.Nodes))
	copy(grown, c.cellOf)
	c.cellOf = grown
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
	for i := range c.cells {
		x := &c.cells[i]
		x.rec, x.removedBy, x.firstTouch = 0, 0, 0
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
		c.rootValue = c.cell(c.survivor).value()
		return
	}

	// The overlay of the contracting tree: what each node's links, rep,
	// label and last toucher are at the current time, indexed like the
	// cells (a free cell's entry is never reached). It starts as the T the
	// cells mirror; the rakes splice it.
	type entry struct {
		parent, left, right, rep cellRef
		lastTouch                recID
		label                    semiring.Linear
	}
	ents := make([]entry, len(c.cells))
	for i := range c.cells {
		x := &c.cells[i]
		ents[i] = entry{parent: x.parent, left: x.left, right: x.right, rep: cellRef(i + 1), label: x.label(c.ring)}
	}

	// Gather the gap records and order them by schedule time (round, then
	// raked-leaf ID; the tiebreak is arbitrary but deterministic, as
	// same-round rakes are independent). The key is packed once, so the
	// sort never follows a pointer.
	type item struct {
		key uint64
		r   *Record
	}
	items := make([]item, 0, c.pt.Len()-1)
	for l := c.pt.Head(); l.Next() != nil; l = l.Next() {
		r := c.newRecord(l.Payload(), l.GapNode().Height())
		items = append(items, item{timeKey(r), r})
	}
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.key, b.key) })

	// touch appends r to u's touch chain and returns the previous toucher.
	touch := func(r *Record, u cellRef, e *entry) recID {
		prev := e.lastTouch
		e.lastTouch = r.id
		if prev != 0 {
			c.recs.At(prev).Next = r.id
		} else {
			c.cell(u).firstTouch = r.id
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
			r, v := it.r, it.r.V
			ev := &ents[v-1]
			p := ev.parent
			ep := &ents[p-1]
			w := ep.left
			if w == v {
				w = ep.right
			}
			ew := &ents[w-1]
			xp := c.cell(p)
			r.P, r.W = p, w
			r.VPrev = touch(r, v, ev)
			r.PPrev = touch(r, p, ep)
			r.WPrev = touch(r, w, ew)
			r.Lv, r.LpIn, r.LwIn = ev.label, ep.label, ew.label
			// small-rake then small-compress (§4.2).
			lpOut := r.LpIn.Compose(c.ring, xp.op.Partial(c.ring, r.Lv.B))
			r.LwOut = lpOut.Compose(c.ring, r.LwIn)
			ew.label = r.LwOut
			r.Wrep, r.Prep = ew.rep, ep.rep
			ew.rep = ep.rep
			// Splice w into p's place.
			g := ep.parent
			ew.parent = g
			if g != 0 {
				eg := &ents[g-1]
				r.G = g
				if eg.left == p {
					eg.left = w
					r.WLeft = true
				} else {
					eg.right = w
				}
			}
			c.cell(v).rec = r.id
			xp.removedBy = r.id
		}
		i = j
	}
	c.records = len(items)

	c.survivor = c.pt.Tail().Payload()
	final := ents[c.survivor-1].label
	if final.A != c.ring.Zero() {
		panic("core: survivor label is not constant")
	}
	c.rootValue = final.B
}

// Validate checks the cell table against T and the trace invariants
// against the current T and PT (tests).
func (c *Contraction) Validate() error {
	if c.pt.Len() != c.T.LeafCount() {
		return fmt.Errorf("core: PT has %d leaves, T has %d", c.pt.Len(), c.T.LeafCount())
	}
	if err := c.pt.Validate(); err != nil {
		return err
	}
	if err := c.validateCells(); err != nil {
		return err
	}
	// PT leaf payloads must be exactly T's leaves in order.
	tl := c.T.Leaves()
	i := 0
	for l := c.pt.Head(); l != nil; l = l.Next() {
		if i >= len(tl) || l.Payload() != c.cellFor(tl[i]) {
			return fmt.Errorf("core: PT leaf %d does not match T leaf order", i)
		}
		if c.cell(l.Payload()).ptLeaf != l.ID() {
			return fmt.Errorf("core: ptLeaf stale at %d", i)
		}
		i++
	}
	recs := 0
	for i := range c.cells {
		x, u := &c.cells[i], cellRef(i+1)
		if !x.live {
			continue // free, and zero: validateCells
		}
		if pl := c.pt.Node(x.ptLeaf); pl != nil && (!pl.IsLeaf() || pl.Payload() != u) {
			return fmt.Errorf("core: cell %d: ptLeaf carries another node", u)
		}
		// No cell names a dead record: killed records are reused.
		for _, l := range [3]recID{x.rec, x.removedBy, x.firstTouch} {
			if err := c.checkLink(l); err != nil {
				return fmt.Errorf("core: cell %d: %w", u, err)
			}
		}
		if x.removedBy != 0 && c.recs.Get(x.removedBy).P != u {
			return fmt.Errorf("core: cell %d: removedBy removes another node", u)
		}
		if x.firstTouch != 0 && !touches(c.recs.Get(x.firstTouch), u) {
			return fmt.Errorf("core: cell %d: firstTouch does not touch the node", u)
		}
		if x.rec == 0 {
			continue
		}
		r := c.recs.Get(x.rec)
		recs++
		if r.V != u || r.vid != x.id || r.id != x.rec {
			return fmt.Errorf("core: cell %d: rec rakes another node", u)
		}
		// Every record's labels must recompose.
		lpOut := r.LpIn.Compose(c.ring, c.cell(r.P).op.Partial(c.ring, r.Lv.B))
		if lpOut.Compose(c.ring, r.LwIn) != r.LwOut {
			return fmt.Errorf("core: record labels inconsistent at node %d", x.id)
		}
		// No link of a live record reaches a dead one.
		for _, l := range [4]recID{r.VPrev, r.PPrev, r.WPrev, r.Next} {
			if err := c.checkLink(l); err != nil {
				return fmt.Errorf("core: record of node %d: %w", x.id, err)
			}
		}
	}
	if want := max(0, c.pt.Len()-1); recs != c.records || recs != want {
		return fmt.Errorf("core: %d records, counter %d, want %d for %d leaves", recs, c.records, want, c.pt.Len())
	}
	return nil
}

// validateCells checks that the cell table mirrors T: the ID map covers
// exactly T's IDs, maps each live node to a live cell of its own that
// holds its links, left bit and value or operation, and maps every dead
// ID to none; every other cell is on the free list, once, and zero.
func (c *Contraction) validateCells() error {
	if len(c.cellOf) != len(c.T.Nodes) {
		return fmt.Errorf("core: ID map covers %d IDs, T has %d", len(c.cellOf), len(c.T.Nodes))
	}
	inUse := 0
	for id, n := range c.T.Nodes {
		u := c.cellOf[id]
		if n == nil {
			if u != 0 {
				return fmt.Errorf("core: departed node %d still maps to cell %d", id, u)
			}
			continue
		}
		if u <= 0 || int(u) > len(c.cells) {
			return fmt.Errorf("core: node %d maps to cell %d of %d", id, u, len(c.cells))
		}
		x := c.cell(u)
		if !x.live || int(x.id) != id {
			return fmt.Errorf("core: node %d maps to the cell of node %d (live %v)", id, x.id, x.live)
		}
		inUse++
		if x.parent != c.cellFor(n.Parent) || x.left != c.cellFor(n.Left) || x.right != c.cellFor(n.Right) {
			return fmt.Errorf("core: cell of node %d: links differ from T", id)
		}
		if x.isLeft != (n.Parent != nil && n.Parent.Left == n) {
			return fmt.Errorf("core: cell of node %d: left bit differs from T", id)
		}
		want := n.Op
		if n.IsLeaf() {
			want = semiring.Op{A: n.Value}
		}
		if x.op != want {
			return fmt.Errorf("core: cell of node %d: value or operation differs from T", id)
		}
	}
	if inUse+len(c.free) != len(c.cells) {
		return fmt.Errorf("core: %d cells in use and %d free for %d live nodes in a table of %d",
			inUse, len(c.free), c.T.Len(), len(c.cells))
	}
	freed := make([]bool, len(c.cells))
	for _, u := range c.free {
		if u <= 0 || int(u) > len(c.cells) || freed[u-1] {
			return fmt.Errorf("core: free list holds cell %d twice or out of range", u)
		}
		freed[u-1] = true
		if *c.cell(u) != (cell{}) {
			return fmt.Errorf("core: free cell %d is not zero", u)
		}
	}
	return nil
}

// checkLink reports a link that names neither none nor a live record:
// one handed out, not dead, and the record its raked leaf's cell holds.
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
	if r.dead || r.V == 0 || c.cell(r.V).rec != l {
		return fmt.Errorf("link %d reaches a dead record", l)
	}
	return nil
}
