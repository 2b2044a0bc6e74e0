package engine

import (
	"fmt"
	"time"

	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// This file runs one flush — the concatenation of its requests' ops — as
// the conflict-free batch kinds internal/core supports.
//
// A wave is the longest conflict-free prefix of the flush's ops not yet
// run, and the rest is the next wave, so an op sees every op submitted
// before it. A wave's writes are node-disjoint: they execute as at most
// one GrowBatch + one CollapseBatch + one SetLeaves + one SetOps call, in
// that fixed order, and every core precondition (checked at planning
// time, against the exact tree state the wave runs on) stays valid
// through the wave. The wave's reads run last, as one Values call.
//
// Footprints: Grow and SetLeaf write {leaf}; SetOp writes {node}; Collapse
// writes {node, node.Left, node.Right} (the children are deleted); Value
// reads {node}; Root reads nothing destructible. A write conflicts with
// its wave, ending it, when an earlier op of the wave touches one of its
// nodes, or when it fails validation after an earlier write of the wave
// (that write may make it valid, as a grow does for a collapse of the
// same leaf): it is validated again as the first op of the next wave. A
// read of a node an earlier op of its wave writes, or that fails
// validation after a write, does not end the wave: it is held and
// answered in a read-only wave right after it, validated against the tree
// the wave leaves behind.
//
// A barrier ends the wave before it and runs alone.
//
// All partitioning state lives in the engine's executor-only scratch and
// is reused across flushes: the steady-state flush loop performs no
// per-flush slice, map or Future allocation.

// footprint is the set of live nodes an op touches, with reads and writes
// distinguished (reads may share a wave with reads).
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
// map. Typical waves touch a handful of nodes, so the linear slice is the
// hot path; the map only exists for large flushes.
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
	for _, n := range fp.nodes[:fp.n] {
		if s.spilled {
			s.m[n] = s.m[n] || fp.write
			continue
		}
		i := 0
		for i < len(s.entries) && s.entries[i].n != n {
			i++
		}
		if i == len(s.entries) {
			s.entries = append(s.entries, fpEntry{n: n})
		}
		s.entries[i].write = s.entries[i].write || fp.write
		if len(s.entries) > fpSpillAt {
			s.spill()
		}
	}
}

// touched reports whether the set holds one of fp's nodes, and whether it
// holds one of them as written.
func (s *footprintSet) touched(fp footprint) (hit, written bool) {
	for _, n := range fp.nodes[:fp.n] {
		w, ok := s.lookup(n)
		hit, written = hit || ok, written || w
	}
	return hit, written
}

// lookup returns n's access mode, and false when the set lacks n.
func (s *footprintSet) lookup(n *NodeT) (write, ok bool) {
	if s.spilled {
		write, ok = s.m[n]
		return write, ok
	}
	for _, e := range s.entries {
		if e.n == n {
			return e.write, true
		}
	}
	return false, false
}

// step is one placed op: the op, its result slot, its request's index in
// the flush, the handle that request is pinned to (if any) and, once
// validated, its node.
type step struct {
	op     *replog.Op
	res    *Result
	fi     int
	pin, n *NodeT
}

// scratch is the executor's reusable flush state. Only the executor
// goroutine touches it, so no locking; slices keep their capacity across
// flushes. Slices may retain stale pointers past their length — harmless,
// those futures are pooled anyway.
type scratch struct {
	flush []*Future // collect's buffer

	// The wave under construction: its footprint, its writes by kind (in
	// submission order within each kind), its reads and its held reads.
	waveFP                              footprintSet
	grows, collapses, setLeaves, setOps []step
	reads, held                         []step
	writes                              int // len of the four write lists
	done, complete, placed              int // futures resolved, futures fully placed, ops placed
	growOps                             []GrowOp
	colOps                              []CollapseOp
	nodes                               []*NodeT
	vals                                []int64
	opArgs                              []OpT

	// Per-flush observability accumulators (timing-enabled engines only):
	// per-stage nanoseconds and the flush record under construction (its
	// wave count and heal cost accumulate wave by wave), reset at flush
	// start and completed by observeFlush after the last wave joins.
	stageNS  [numStages]int64
	flushRec obs.WaveTrace

	// Per-flush distributed-trace state (engines with Options.Obs):
	// spanActive marks a flush sampled into the hub's span log — by the
	// hub's cadence, or because it carries an explicitly traced
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

// plan resolves op (pinned to the handle pin, when set) against the
// current tree and validates it. The footprint is conservative — the nodes
// op names, whether or not it validates — so that an invalid op still
// orders against the ops around it.
func (e *Engine) plan(op *replog.Op, pin *NodeT) (n *NodeT, fp footprint, err error) {
	switch {
	case op.Kind == replog.OpRoot:
		return nil, fp, nil
	case op.Kind < replog.OpGrow || op.Kind > replog.OpRoot:
		return nil, fp, fmt.Errorf("%w (%d)", ErrBadKind, op.Kind)
	}
	t := e.host.Tree()
	if op.Node < 0 || op.Node >= len(t.Nodes) || t.Nodes[op.Node] == nil || (pin != nil && t.Nodes[op.Node] != pin) {
		return nil, fp, fmt.Errorf("%w (id %d)", ErrDeadNode, op.Node)
	}
	n = t.Nodes[op.Node]
	fp.write = op.Kind.Mutates()
	fp.add(n)
	switch op.Kind {
	case replog.OpGrow, replog.OpSetLeaf:
		if !n.IsLeaf() {
			err = ErrNotLeaf
		}
	case replog.OpCollapse:
		if n.IsLeaf() {
			return n, fp, ErrNotInternal
		}
		fp.add(n.Left)
		fp.add(n.Right)
		if !n.Left.IsLeaf() || !n.Right.IsLeaf() {
			err = ErrNotCollapsible
		}
	case replog.OpSetOp:
		if n.IsLeaf() {
			err = ErrNotInternal
		}
	}
	return n, fp, err
}

// place puts op i of the flush's request fi into the wave under
// construction: it joins, is held for the read-only wave behind it, or
// fails validation. It returns false, placing nothing, when the op
// conflicts with the wave, which must run first.
func (e *Engine) place(flush []*Future, fi, i int) bool {
	sc := &e.sc
	f := flush[fi]
	s := step{op: &f.ops[i], res: &f.res[i], fi: fi, pin: f.pin}
	n, fp, err := e.plan(s.op, s.pin)
	touched, written := sc.waveFP.touched(fp)
	afterWrite := err != nil && sc.writes > 0
	if s.op.Kind.Mutates() {
		if touched || afterWrite {
			return false
		}
	} else if written || afterWrite {
		sc.held = append(sc.held, s)
		sc.waveFP.add(fp)
		return true
	}
	if err != nil {
		e.stats.fail()
		s.res.Err = err
		return true
	}
	s.n = n
	switch s.op.Kind {
	case replog.OpGrow:
		sc.grows = append(sc.grows, s)
	case replog.OpCollapse:
		sc.collapses = append(sc.collapses, s)
	case replog.OpSetLeaf:
		sc.setLeaves = append(sc.setLeaves, s)
	case replog.OpSetOp:
		sc.setOps = append(sc.setOps, s)
	default:
		sc.reads = append(sc.reads, s)
	}
	if fp.write {
		sc.writes++
	}
	sc.waveFP.add(fp)
	return true
}

// executeFlush runs flush, which holds ops ops, as waves. A panic while a
// wave runs (a bug, not a validation miss) fails the ops of the flush that
// have not run (Future.abort) and poisons the engine: the contraction's
// internal state is unknown.
func (e *Engine) executeFlush(flush []*Future, ops int) {
	if e.poisoned {
		e.stats.drop(ops)
		for _, f := range flush {
			f.resolve(ErrPoisoned)
		}
		return
	}
	flushStart := time.Now()
	var coalesceNS int64
	if e.timing {
		// The flush's first request is its oldest: its submit→flush-start
		// span is how long the flush waited in the queue.
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
			e.observeFlush(ops, coalesceNS, int64(d))
		}
	}()
	e.stats.flush(ops)

	sc := &e.sc
	sc.done, sc.complete, sc.placed = 0, 0, 0
	defer func() {
		if r := recover(); r != nil {
			// Futures resolve in flush order, so flush[done:] is exactly
			// the set not yet resolved: a resolved Future may already be
			// recycled by its caller and must never be touched again.
			e.poisoned = true
			e.stats.drop(ops - sc.placed)
			err := fmt.Errorf("%w: %v", ErrPoisoned, r)
			for _, f := range flush[sc.done:] {
				f.abort(err)
			}
		}
	}()
	for i, f := range flush {
		if f.fn != nil {
			e.runWave(flush)
			sc.placed++
			e.beginWave()
			e.phase(stageBarrierIdx, func() { f.fn(e.host) })
			e.stats.done(kBarrier, 1)
		}
		for j := range f.ops {
			if !e.place(flush, i, j) {
				e.runWave(flush)
				e.place(flush, i, j) // the wave is empty: the op joins or fails
			}
			sc.placed++
		}
		sc.complete = i + 1
		if f.fn != nil {
			e.ack(flush, sc.complete)
		}
	}
	e.runWave(flush)
}

// beginWave counts one wave, then passes the flush path's fault-injection
// crash point: an injected error panics into executeFlush's recovery, so
// the engine is poisoned and every in-flight future fails, exactly like a
// genuine executor crash.
func (e *Engine) beginWave() {
	e.stats.wave()
	e.sc.flushRec.Waves++
	if r := e.opts.Faults.Check("engine.wave"); r != nil && r.Err != nil {
		panic(r.Err)
	}
}

// runWave executes the wave under construction as the core batch calls of
// §1.4, one phase per op kind, on the executor goroutine; then its held
// reads as a read-only wave. It resets the wave and resolves every future
// whose ops have all run. A request's writes are acknowledged only after
// the seal phase has handed their wave to the tap (the WAL append), so an
// acknowledged write is always in the log, and a request without a
// pending read is acknowledged then, before the wave's reads run.
func (e *Engine) runWave(flush []*Future) {
	sc := &e.sc
	if sc.writes+len(sc.reads) > 0 {
		e.beginWave()
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
		if sc.writes > 0 {
			e.phase(phaseSealWaveIdx, e.phaseSealWave)
			e.ackSealed(flush)
		}
		if len(sc.reads) > 0 {
			e.phase(phaseValuesIdx, e.phaseReads)
		}
	}
	sc.reads = sc.reads[:0]
	for _, s := range sc.held {
		n, _, err := e.plan(s.op, s.pin)
		if err != nil {
			e.stats.fail()
			s.res.Err = err
			continue
		}
		s.n = n
		sc.reads = append(sc.reads, s)
	}
	if len(sc.reads) > 0 {
		e.beginWave()
		e.phase(phaseValuesIdx, e.phaseReads)
	}
	sc.waveFP.reset()
	sc.grows, sc.collapses, sc.setLeaves, sc.setOps = sc.grows[:0], sc.collapses[:0], sc.setLeaves[:0], sc.setOps[:0]
	sc.reads, sc.held, sc.writes = sc.reads[:0], sc.held[:0], 0
	e.ack(flush, sc.complete)
}

// ackSealed runs once the wave's writes are sealed and logged. It marks
// them as run, so a panic before their requests resolve does not report
// them as failed, and resolves the complete requests ahead of the first
// one still waiting on a read of this wave or its held-read wave.
func (e *Engine) ackSealed(flush []*Future) {
	sc := &e.sc
	for _, steps := range [...][]step{sc.grows, sc.collapses, sc.setLeaves, sc.setOps} {
		for _, s := range steps {
			s.res.Err = nil
		}
	}
	upto := sc.complete
	for _, pending := range [...][]step{sc.reads, sc.held} {
		if len(pending) > 0 {
			upto = min(upto, pending[0].fi)
		}
	}
	e.ack(flush, upto)
}

// ack resolves, in order, the flush's futures not yet resolved ahead of
// flush[upto]; their ops have all run.
func (e *Engine) ack(flush []*Future, upto int) {
	for sc := &e.sc; sc.done < upto; sc.done++ {
		flush[sc.done].resolve(nil)
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

// opOf is the node operation a grow or set-op carries.
func opOf(op *replog.Op) OpT { return OpT{A: op.A, B: op.B, C: op.C} }

func (e *Engine) phaseGrows() {
	sc := &e.sc
	sc.growOps = sc.growOps[:0]
	for _, s := range sc.grows {
		sc.growOps = append(sc.growOps, GrowOp{Leaf: s.n, Op: opOf(s.op), LeftVal: s.op.Left, RightVal: s.op.Right})
	}
	pairs := e.host.GrowBatch(sc.growOps)
	for i, s := range sc.grows {
		s.res.Pair = pairs[i]
		s.op.LeftID, s.op.RightID = pairs[i][0].ID, pairs[i][1].ID
	}
	e.noteHeal(replog.OpGrow, len(sc.grows))
}

func (e *Engine) phaseCollapses() {
	sc := &e.sc
	sc.colOps = sc.colOps[:0]
	for _, s := range sc.collapses {
		sc.colOps = append(sc.colOps, CollapseOp{Node: s.n, NewValue: s.op.Value})
	}
	e.host.CollapseBatch(sc.colOps)
	e.noteHeal(replog.OpCollapse, len(sc.collapses))
}

func (e *Engine) phaseSetLeaves() {
	sc := &e.sc
	sc.nodes, sc.vals = sc.nodes[:0], sc.vals[:0]
	for _, s := range sc.setLeaves {
		sc.nodes = append(sc.nodes, s.n)
		sc.vals = append(sc.vals, s.op.Value)
	}
	e.host.SetLeaves(sc.nodes, sc.vals)
	e.noteHeal(replog.OpSetLeaf, len(sc.setLeaves))
}

func (e *Engine) phaseSetOps() {
	sc := &e.sc
	sc.nodes, sc.opArgs = sc.nodes[:0], sc.opArgs[:0]
	for _, s := range sc.setOps {
		sc.nodes = append(sc.nodes, s.n)
		sc.opArgs = append(sc.opArgs, opOf(s.op))
	}
	e.host.SetOps(sc.nodes, sc.opArgs)
	e.noteHeal(replog.OpSetOp, len(sc.setOps))
}

// phaseSealWave advances the applied sequence for a mutating wave
// (whether or not a tap is attached — the sequence is the tree state's
// log position) and, if tapped, emits the sealed change record: the
// wave's writes in execution order, grow IDs filled in. It runs before
// the wave's requests are acknowledged, before its read phase and before
// the executor moves on, so an acknowledged write is in the log and a
// later barrier (snapshots run as barriers) always observes a log
// position consistent with the tree it reads.
func (e *Engine) phaseSealWave() {
	sc := &e.sc
	seq := e.appliedSeq.Add(1)
	tap := e.Tap()
	if tap == nil {
		return
	}
	// The record's ops are freshly allocated per wave: they escape into
	// the tap, which may keep them. A wave log does not; it copies the
	// wave into its binary record.
	rec := make([]replog.Op, 0, sc.writes)
	for _, steps := range [...][]step{sc.grows, sc.collapses, sc.setLeaves, sc.setOps} {
		for _, s := range steps {
			rec = append(rec, s.op.Logged())
		}
	}
	epoch := e.epoch.Load()
	w := replog.Wave{Seq: seq, Epoch: epoch, Ops: rec, Root: e.host.Root()}
	if sc.spanActive {
		// Stamp the record with its trace and seal time (observability
		// metadata, outside the checksum) and drop the wave's anchor
		// span. Its ID is the deterministic WaveSpanID(epoch, seq), so
		// the WAL append and the follower's fetch/apply spans — emitted
		// in another goroutine or another process — parent onto it
		// without any span ID crossing the wire.
		w.TraceID = uint64(sc.spanTrace)
		w.SealedAt = time.Now().UnixNano()
		e.opts.Obs.Spans().Add(obs.Span{
			Trace:  sc.spanTrace,
			Span:   obs.WaveSpanID(epoch, seq),
			Parent: sc.spanFlush,
			Name:   "wave",
			Tree:   e.traceID.Load(),
			Seq:    seq,
			Epoch:  epoch,
			Start:  w.SealedAt,
			Reqs:   sc.writes,
		})
	}
	w.Seal()
	tap(w)
}

// phaseReads answers the wave's reads against the tree it left behind.
// Each carries the applied-wave sequence it observed: the wave's own
// mutations already advanced it, so the stamp names exactly the tree
// version the value comes from (Future.ValueSeq).
func (e *Engine) phaseReads() {
	sc := &e.sc
	sc.nodes = sc.nodes[:0]
	for _, s := range sc.reads {
		if s.n != nil {
			sc.nodes = append(sc.nodes, s.n)
		}
	}
	var vals []int64
	if len(sc.nodes) > 0 {
		vals = e.host.Values(sc.nodes)
	}
	seq := e.appliedSeq.Load()
	for _, s := range sc.reads {
		s.res.Seq, s.res.Err = seq, nil
		if s.n == nil {
			s.res.Value = e.host.Root()
			e.stats.done(replog.OpRoot, 1)
			continue
		}
		s.res.Value, vals = vals[0], vals[1:]
		e.stats.done(replog.OpValue, 1)
	}
}
