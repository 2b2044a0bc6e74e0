package engine

import (
	"fmt"
	"time"

	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// This file turns one flush — an arbitrary mix of concurrent requests — into
// the conflict-free batch kinds internal/core supports.
//
// A flush is partitioned into *waves*. A wave is a set of requests whose
// node footprints are pairwise disjoint, so each wave executes as at most
// one GrowBatch + one CollapseBatch + one SetLeaves + one SetOps + one
// Values call, in that fixed order; disjointness makes the order
// irrelevant to the results and keeps every core precondition (checked at
// planning time, against the exact tree state the wave will run on) valid
// through the wave.
//
// Footprints: Grow and SetLeaf write {leaf}; SetOp writes {node}; Collapse
// writes {node, node.Left, node.Right} (the children are deleted); Value
// reads {node}; Root reads nothing destructible. A request joins the
// current wave unless its footprint intersects the wave's footprint or the
// footprint of an already-deferred request. Either way it is deferred
// before it is validated, so same-node requests keep submission order and
// each is validated against the tree its predecessors leave behind (a
// collapse behind its own grow sees an internal node). Deferred requests
// form the next wave's input, so planning always terminates: the earliest
// pending request always joins (or fails validation).
//
// Barriers seal the flush: a barrier runs alone between waves.
//
// All partitioning state lives in the engine's executor-only scratch and
// is reused across flushes: the steady-state flush loop performs no
// per-flush slice, map or Future allocation.

// footprint is the set of live nodes a request touches, with reads and
// writes distinguished (reads may share a wave with reads).
type footprint struct {
	nodes [3]*NodeT
	n     int
	write bool
}

func (fp *footprint) add(n *NodeT) {
	fp.nodes[fp.n] = n
	fp.n++
}

// fpEntry is one (node, strongest access mode) pair of a footprintSet.
type fpEntry struct {
	n     *NodeT
	write bool
}

// fpSpillAt is the small-set size beyond which a footprintSet moves to a
// map. Typical waves touch a handful of nodes (a flush of mean size 2–30
// with ≤3 nodes per request), so the linear slice is the hot path; the map
// only exists for pathological flushes.
const fpSpillAt = 32

// footprintSet records nodes with the strongest access mode seen
// (write beats read). Small sets are a linear slice — no allocation, no
// hashing; large sets spill to a map that is retained and reused.
type footprintSet struct {
	entries []fpEntry
	m       map[*NodeT]bool
	spilled bool
}

// reset empties the set, keeping capacity for reuse.
func (s *footprintSet) reset() {
	s.entries = s.entries[:0]
	if s.spilled {
		clear(s.m)
		s.spilled = false
	}
}

func (s *footprintSet) spill() {
	if s.m == nil {
		s.m = make(map[*NodeT]bool, 4*fpSpillAt)
	}
	for _, e := range s.entries {
		s.m[e.n] = e.write
	}
	s.entries = s.entries[:0]
	s.spilled = true
}

// add records fp's nodes with its access mode (write wins over read).
func (s *footprintSet) add(fp footprint) {
	for i := 0; i < fp.n; i++ {
		n := fp.nodes[i]
		if s.spilled {
			if w, ok := s.m[n]; !ok || (fp.write && !w) {
				s.m[n] = fp.write
			}
			continue
		}
		found := false
		for j := range s.entries {
			if s.entries[j].n == n {
				if fp.write {
					s.entries[j].write = true
				}
				found = true
				break
			}
		}
		if !found {
			s.entries = append(s.entries, fpEntry{n, fp.write})
			if len(s.entries) > fpSpillAt {
				s.spill()
			}
		}
	}
}

// conflicts reports whether fp cannot coexist with the set: write/any or
// any/write overlap.
func (s *footprintSet) conflicts(fp footprint) bool {
	for i := 0; i < fp.n; i++ {
		n := fp.nodes[i]
		if s.spilled {
			if w, ok := s.m[n]; ok && (w || fp.write) {
				return true
			}
			continue
		}
		for j := range s.entries {
			if s.entries[j].n == n {
				if s.entries[j].write || fp.write {
					return true
				}
				break // entries are unique per node: no further match
			}
		}
	}
	return false
}

// scratch is the executor's reusable flush state. Only the executor
// goroutine touches it, so no locking; slices keep their capacity across
// flushes. Slices may retain stale *Future pointers past their length —
// harmless, those futures are pooled anyway.
type scratch struct {
	flush    []*Future // collect's buffer
	overflow []*Future // deferred requests, ping-ponged with flush

	wave   []*Future
	waveFP footprintSet
	defFP  footprintSet

	grows, collapses, setLeaves, setOps, values []*Future
	order                                       []*Future // wave in exact resolution order

	growOps []GrowOp
	colOps  []CollapseOp
	nodes   []*NodeT
	vals    []int64
	opArgs  []OpT

	// Per-wave execution state shared between the phases of one wave.
	resolved int         // prefix of order already resolved
	mutating int         // mutating requests in the wave (order's prefix)
	pairs    [][2]*NodeT // the grows' new leaves, held until the wave is acked
	tap      *WaveTap    // tap active for this wave (nil = none)
	rec      []replog.Op // change record under construction (escapes into the tap)

	// Per-flush observability accumulators (timing-enabled engines only):
	// per-stage nanoseconds and the flush record under construction (its
	// wave count and heal cost accumulate wave by wave), reset at flush
	// start and completed by observeFlush after the last wave joins.
	stageNS  [numStages]int64
	flushRec obs.WaveTrace

	// Per-flush distributed-trace state (engines with Options.Obs):
	// spanActive marks a flush sampled into the hub's span log — by the
	// hub's cadence or boost, or because it carries an explicitly traced
	// request. spanTrace/spanParent are the adopted trace and ingest-span
	// parent; spanFlush is the flush span's own ID (parent of stage and
	// wave spans). flushT0 anchors span timestamps; stageStart holds each
	// stage's first-start offset from flushT0 (-1 = never ran).
	spanActive bool
	spanTrace  obs.SpanID
	spanParent obs.SpanID
	spanFlush  obs.SpanID
	flushT0    time.Time
	stageStart [numStages]int64
}

// resolve returns the live node a ref addresses, or an error. Liveness is
// checked against Tree.Nodes, where deleted nodes are nil-ed but keep
// their slot.
func (e *Engine) resolve(ref NodeRef) (*NodeT, error) {
	t := e.host.Tree()
	if ref.ByID {
		if ref.ID < 0 || ref.ID >= len(t.Nodes) || t.Nodes[ref.ID] == nil {
			return nil, fmt.Errorf("%w (id %d)", ErrDeadNode, ref.ID)
		}
		return t.Nodes[ref.ID], nil
	}
	n := ref.N
	if n == nil || n.ID < 0 || n.ID >= len(t.Nodes) || t.Nodes[n.ID] != n {
		return nil, ErrDeadNode
	}
	return n, nil
}

// planOne resolves and validates f against the current tree state and
// returns its footprint. An error means the request is invalid *now* and —
// because it is only called for requests whose nodes no pending request
// ahead of them touches — invalid at its execution point.
func (e *Engine) planOne(f *Future) (footprint, error) {
	var fp footprint
	switch f.kind {
	case kRoot:
		return fp, nil
	case kBarrier:
		return fp, nil
	}
	n, err := e.resolve(f.ref)
	if err != nil {
		return fp, err
	}
	switch f.kind {
	case kGrow, kSetLeaf:
		if !n.IsLeaf() {
			return fp, ErrNotLeaf
		}
		fp.write = true
		fp.add(n)
	case kCollapse:
		if n.IsLeaf() {
			return fp, ErrNotInternal
		}
		if !n.Left.IsLeaf() || !n.Right.IsLeaf() {
			return fp, ErrNotCollapsible
		}
		fp.write = true
		fp.add(n)
		fp.add(n.Left)
		fp.add(n.Right)
	case kSetOp:
		if n.IsLeaf() {
			return fp, ErrNotInternal
		}
		fp.write = true
		fp.add(n)
	case kValue:
		fp.add(n)
	}
	f.ref = NodeRef{N: n} // pin the resolved handle for execution
	return fp, nil
}

// executeFlush partitions flush into waves and executes them. A panic
// while a wave runs (a bug, not a validation miss) fails the whole flush
// and poisons the engine: the contraction's internal state is unknown.
func (e *Engine) executeFlush(flush []*Future) {
	if e.poisoned {
		e.stats.drop(len(flush))
		for _, f := range flush {
			f.resolve(0, [2]*NodeT{}, ErrPoisoned)
		}
		return
	}
	flushStart := time.Now()
	var coalesceNS int64
	if e.timing {
		// The flush's first request is its oldest: its submit→flush-start
		// span is the coalesce wait the batching window imposed.
		if at := flush[0].at; !at.IsZero() {
			coalesceNS = int64(flushStart.Sub(at))
		}
		e.sc.stageNS = [numStages]int64{}
		e.sc.flushRec = obs.WaveTrace{}
		e.flushSeq++
		e.beginFlushSpan(flush, flushStart)
	}
	defer func() {
		d := time.Since(flushStart)
		e.stats.flushDone(d)
		if e.timing {
			e.observeFlush(len(flush), coalesceNS, int64(d))
		}
	}()
	e.stats.flush(len(flush))

	// Deferred requests ping-pong between two reusable buffers: each round
	// reads `pending` from one and writes `deferred` into the other. bufA
	// is the incoming flush's backing (collect's buffer).
	sc := &e.sc
	bufA, bufB := flush, sc.overflow
	pending := flush
	intoB := true
	for len(pending) > 0 {
		var deferred []*Future
		if intoB {
			deferred = bufB[:0]
		} else {
			deferred = bufA[:0]
		}
		sc.wave = sc.wave[:0]
		sc.waveFP.reset()
		sc.defFP.reset()
		var (
			sealed   = false // a barrier in the wave: nothing may join
			deferAll = false // a deferred barrier: everything after defers
		)
		for _, f := range pending {
			if deferAll || sealed {
				deferred = append(deferred, f)
				continue
			}
			if f.kind == kBarrier {
				if len(sc.wave) == 0 {
					sc.wave = append(sc.wave, f)
					sealed = true
				} else {
					deferred = append(deferred, f)
					deferAll = true
				}
				continue
			}
			if order := e.footprintAll(f); sc.defFP.conflicts(order) || sc.waveFP.conflicts(order) {
				// A request ahead of f — deferred or in this wave — touches
				// f's nodes: preserve submission order without validating
				// yet (the earlier request may change f's validity, as a
				// grow does for a collapse of the same leaf).
				deferred = append(deferred, f)
				sc.defFP.add(order)
				continue
			}
			// footprintAll and planOne name the same nodes in the same
			// mode, so a request that passed the check above cannot
			// conflict with the wave.
			fp, err := e.planOne(f)
			if err != nil {
				e.stats.fail()
				f.resolve(0, [2]*NodeT{}, err)
				continue
			}
			sc.wave = append(sc.wave, f)
			sc.waveFP.add(fp)
		}
		if len(sc.wave) > 0 {
			e.runWave(sc.wave)
		}
		if e.poisoned {
			// A wave panic mid-flush: the structure is in an unknown
			// state, so the remaining waves must not touch it.
			e.stats.drop(len(deferred))
			for _, f := range deferred {
				f.resolve(0, [2]*NodeT{}, ErrPoisoned)
			}
			return
		}
		if intoB {
			bufB = deferred
		} else {
			bufA = deferred
		}
		intoB = !intoB
		pending = deferred
	}
	sc.flush, sc.overflow = bufA, bufB
}

// footprintAll returns a conservative footprint for ordering against
// deferred requests: the nodes f names, all treated as writes, without
// validation. ByID refs resolve against the current tree (we are on the
// executor goroutine); an unresolvable ref has an empty footprint — it can
// never conflict, and fails validation when reached.
func (e *Engine) footprintAll(f *Future) footprint {
	fp := footprint{write: f.kind != kValue}
	if f.kind == kRoot || f.kind == kBarrier {
		return fp
	}
	n, err := e.resolve(f.ref)
	if err != nil {
		return footprint{}
	}
	fp.add(n)
	if f.kind == kCollapse && !n.IsLeaf() {
		fp.add(n.Left)
		fp.add(n.Right)
	}
	return fp
}

// runWave executes one conflict-free wave as the core batch calls of
// §1.4, one phase per request kind, on the executor goroutine.
//
// Mutating requests are acknowledged only after the seal phase has handed
// the wave to the tap (the WAL append), so an acknowledged write is always
// in the log. Futures resolve in a fixed order (grows, collapses,
// set-leaves, set-ops, values); the panic path uses that order to fail
// exactly the futures not yet resolved — a resolved Future may already
// have been recycled by its caller and must never be touched again.
func (e *Engine) runWave(wave []*Future) {
	sc := &e.sc
	sc.resolved = 0
	// Point order at this wave before anything can panic: until the
	// phase-ordered rebuild below, sc.order still holds the previous
	// wave's (resolved, possibly recycled) futures, and a panic in that
	// window — the engine.wave fault check fires there — would fail the
	// wrong futures and strand this wave's callers forever.
	sc.order = append(sc.order[:0], wave...)
	defer func() {
		if r := recover(); r != nil {
			e.poisoned = true
			err := fmt.Errorf("%w: %v", ErrPoisoned, r)
			for _, f := range sc.order[sc.resolved:] {
				f.resolve(0, [2]*NodeT{}, err)
			}
		}
	}()
	e.stats.wave()
	sc.flushRec.Waves++

	// Fault-injection crash point for the flush path: an injected error
	// rides the wave's own panic recovery into a poisoned engine — every
	// in-flight future fails, exactly like a genuine executor crash.
	if r := e.opts.Faults.Check("engine.wave"); r != nil && r.Err != nil {
		panic(r.Err)
	}

	if wave[0].kind == kBarrier {
		e.phase(stageBarrierIdx, e.phaseBarrier)
		return
	}

	sc.grows = sc.grows[:0]
	sc.collapses = sc.collapses[:0]
	sc.setLeaves = sc.setLeaves[:0]
	sc.setOps = sc.setOps[:0]
	sc.values = sc.values[:0]
	sc.pairs = nil
	for _, f := range wave {
		switch f.kind {
		case kGrow:
			sc.grows = append(sc.grows, f)
		case kCollapse:
			sc.collapses = append(sc.collapses, f)
		case kSetLeaf:
			sc.setLeaves = append(sc.setLeaves, f)
		case kSetOp:
			sc.setOps = append(sc.setOps, f)
		case kValue, kRoot:
			sc.values = append(sc.values, f)
		}
	}
	sc.order = sc.order[:0]
	sc.order = append(sc.order, sc.grows...)
	sc.order = append(sc.order, sc.collapses...)
	sc.order = append(sc.order, sc.setLeaves...)
	sc.order = append(sc.order, sc.setOps...)
	sc.order = append(sc.order, sc.values...)

	// When a wave tap is attached, the phases build the wave's change
	// record. Op data is captured from the futures before they resolve: a
	// resolved Future may already be recycled (and reused) by its caller.
	// The record slice is freshly allocated per wave — it escapes into the
	// tap, which may retain it (log rings do).
	sc.tap = e.tap.Load()
	sc.mutating = len(sc.grows) + len(sc.collapses) + len(sc.setLeaves) + len(sc.setOps)
	sc.rec = nil
	if sc.tap != nil && sc.mutating > 0 {
		sc.rec = make([]replog.Op, 0, sc.mutating)
	}

	if len(sc.grows) > 0 {
		e.phase(phaseGrowsIdx, e.phaseGrows)
	}
	if len(sc.collapses) > 0 {
		e.phase(phaseCollapsesIdx, e.phaseCollapses)
	}
	if len(sc.setLeaves) > 0 {
		e.phase(phaseSetLeavesIdx, e.phaseSetLeaves)
	}
	if len(sc.setOps) > 0 {
		e.phase(phaseSetOpsIdx, e.phaseSetOps)
	}
	if sc.mutating > 0 {
		e.phase(phaseSealWaveIdx, e.phaseSealWave)
		e.ackMutations()
	}
	if len(sc.values) > 0 {
		e.phase(phaseValuesIdx, e.phaseValues)
	}
}

// Wave phase indices: each phase's slot in the per-flush stage timings
// (obs.go adds the barrier's slot after them).
const (
	phaseGrowsIdx = iota
	phaseCollapsesIdx
	phaseSetLeavesIdx
	phaseSetOpsIdx
	phaseSealWaveIdx
	phaseValuesIdx
	numPhases
)

// phase runs one wave phase; on a timing-enabled engine it accumulates the
// phase's wall time into the flush's stage slot idx.
func (e *Engine) phase(idx int, fn func()) {
	if !e.timing {
		fn()
		return
	}
	sc := &e.sc
	t0 := time.Now()
	if sc.spanActive && sc.stageStart[idx] < 0 {
		sc.stageStart[idx] = int64(t0.Sub(sc.flushT0))
	}
	fn()
	sc.stageNS[idx] += int64(time.Since(t0))
}

func (e *Engine) phaseBarrier() {
	f := e.sc.order[0]
	f.fn(e.host)
	e.stats.done(kBarrier)
	e.sc.resolved++
	f.seq = e.appliedSeq.Load()
	f.resolve(0, [2]*NodeT{}, nil)
}

func (e *Engine) phaseGrows() {
	sc := &e.sc
	sc.growOps = sc.growOps[:0]
	for _, f := range sc.grows {
		sc.growOps = append(sc.growOps, GrowOp{Leaf: f.ref.N, Op: f.op, LeftVal: f.a, RightVal: f.b})
	}
	sc.pairs = e.host.GrowBatch(sc.growOps)
	e.noteHeal(len(sc.grows))
	if sc.rec != nil {
		for i, f := range sc.grows {
			sc.rec = append(sc.rec, replog.Op{
				Kind: replog.OpGrow, Node: f.ref.N.ID,
				A: f.op.A, B: f.op.B, C: f.op.C,
				Left: f.a, Right: f.b,
				LeftID: sc.pairs[i][0].ID, RightID: sc.pairs[i][1].ID,
			})
		}
	}
}

func (e *Engine) phaseCollapses() {
	sc := &e.sc
	sc.colOps = sc.colOps[:0]
	for _, f := range sc.collapses {
		sc.colOps = append(sc.colOps, CollapseOp{Node: f.ref.N, NewValue: f.a})
	}
	e.host.CollapseBatch(sc.colOps)
	e.noteHeal(len(sc.collapses))
	if sc.rec != nil {
		for _, f := range sc.collapses {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpCollapse, Node: f.ref.N.ID, Value: f.a})
		}
	}
}

func (e *Engine) phaseSetLeaves() {
	sc := &e.sc
	sc.nodes = sc.nodes[:0]
	sc.vals = sc.vals[:0]
	for _, f := range sc.setLeaves {
		sc.nodes = append(sc.nodes, f.ref.N)
		sc.vals = append(sc.vals, f.a)
	}
	e.host.SetLeaves(sc.nodes, sc.vals)
	e.noteHeal(len(sc.setLeaves))
	if sc.rec != nil {
		for _, f := range sc.setLeaves {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpSetLeaf, Node: f.ref.N.ID, Value: f.a})
		}
	}
}

func (e *Engine) phaseSetOps() {
	sc := &e.sc
	sc.nodes = sc.nodes[:0]
	sc.opArgs = sc.opArgs[:0]
	for _, f := range sc.setOps {
		sc.nodes = append(sc.nodes, f.ref.N)
		sc.opArgs = append(sc.opArgs, f.op)
	}
	e.host.SetOps(sc.nodes, sc.opArgs)
	e.noteHeal(len(sc.setOps))
	if sc.rec != nil {
		for _, f := range sc.setOps {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpSetOp, Node: f.ref.N.ID, A: f.op.A, B: f.op.B, C: f.op.C})
		}
	}
}

// phaseSealWave advances the applied sequence for a mutating wave
// (whether or not a tap is attached — the sequence is the tree state's
// log position) and, if tapped, emits the sealed change record. It runs
// before the wave's mutating requests are acknowledged, before its read
// phase and before the executor moves on, so an acknowledged write is in
// the log and a later barrier (snapshots run as barriers) always observes
// a log position consistent with the tree it reads.
func (e *Engine) phaseSealWave() {
	seq := e.appliedSeq.Add(1)
	if e.sc.rec != nil {
		epoch := e.epoch.Load()
		w := replog.Wave{Seq: seq, Epoch: epoch, Ops: e.sc.rec, Root: e.host.Root()}
		if e.sc.spanActive {
			// Stamp the record with its trace and seal time (observability
			// metadata, outside the checksum) and drop the wave's anchor
			// span. Its ID is the deterministic WaveSpanID(epoch, seq), so
			// the WAL append and the follower's fetch/apply spans — emitted
			// in another goroutine or another process — parent onto it
			// without any span ID crossing the wire.
			w.TraceID = uint64(e.sc.spanTrace)
			w.SealedAt = time.Now().UnixNano()
			e.opts.Obs.Spans().Add(obs.Span{
				Trace:  e.sc.spanTrace,
				Span:   obs.WaveSpanID(epoch, seq),
				Parent: e.sc.spanFlush,
				Name:   "wave",
				Tree:   e.traceID.Load(),
				Seq:    seq,
				Epoch:  epoch,
				Start:  w.SealedAt,
				Reqs:   e.sc.mutating,
			})
		}
		w.Seal()
		(*e.sc.tap)(w)
	}
}

// ackMutations resolves the wave's mutating futures — order's first
// mutating entries, grows first — once the seal has logged the wave.
func (e *Engine) ackMutations() {
	sc := &e.sc
	for i, f := range sc.order[:sc.mutating] {
		var pair [2]*NodeT
		if i < len(sc.pairs) {
			pair = sc.pairs[i]
		}
		e.stats.done(f.kind)
		sc.resolved++
		f.resolve(0, pair, nil)
	}
}

func (e *Engine) phaseValues() {
	sc := &e.sc
	sc.nodes = sc.nodes[:0]
	for _, f := range sc.values {
		if f.kind == kValue {
			sc.nodes = append(sc.nodes, f.ref.N)
		}
	}
	var vals []int64
	if len(sc.nodes) > 0 {
		vals = e.host.Values(sc.nodes)
	}
	// Read futures carry the applied-wave sequence they observed: the
	// wave's own mutations already advanced it above, so the stamp names
	// exactly the tree version the values come from (Future.ValueSeq).
	seq := e.appliedSeq.Load()
	i := 0
	for _, f := range sc.values {
		f.seq = seq
		if f.kind == kValue {
			e.stats.done(kValue)
			sc.resolved++
			f.resolve(vals[i], [2]*NodeT{}, nil)
			i++
		} else {
			e.stats.done(kRoot)
			root := e.host.Root()
			sc.resolved++
			f.resolve(root, [2]*NodeT{}, nil)
		}
	}
}
