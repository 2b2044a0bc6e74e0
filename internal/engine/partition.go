package engine

import (
	"fmt"
	"time"

	"dyntc/internal/obs"
	"dyntc/internal/pram"
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

	// Per-wave execution state shared between the phases of one wave
	// (chain-serialized; the executor reads it again only after the wave's
	// task group has joined).
	resolved int         // prefix of order already resolved
	mutating int         // mutating requests in the wave
	tap      *WaveTap    // tap active for this wave (nil = none)
	rec      []replog.Op // change record under construction (escapes into the tap)

	// Per-flush observability accumulators (timing-enabled engines only):
	// per-stage nanoseconds and the flush's wave count, reset at flush
	// start, read by observeFlush after the last wave joins.
	stageNS [numStages]int64
	waveN   int

	// Per-flush heal accumulators (timing-enabled engines with a
	// heal-reporting host): trace records re-executed across the flush's
	// mutating waves, waves that fell back to re-simulation with the
	// reason of the last one, and the contraction's trace size after the
	// last mutating wave.
	healRecords     int64
	healResims      int
	healResimReason string
	traceRecords    int

	// Per-flush distributed-trace state (engines with Options.Spans):
	// spanActive marks a flush sampled into the span log — every
	// TraceSample-th flush, or any flush carrying an explicitly traced
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
		e.sc.waveN = 0
		e.sc.healRecords, e.sc.healResims, e.sc.healResimReason, e.sc.traceRecords = 0, 0, "", 0
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
// §1.4, each scheduled as one entry of the wave's task group: on an
// engine without a scheduler pool the phases run inline on the executor;
// with one (Options.Pool) they are submitted to the engine's serial lane,
// so one tree's sub-batches keep their order (the host is single-writer
// and metering must stay deterministic) while the grow/set/value phases
// of different trees' waves interleave freely across the shared workers.
//
// Futures resolve in a fixed order (grows, collapses, set-leaves,
// set-ops, values); the panic path uses that order to fail exactly the
// futures not yet resolved — a resolved Future may already have been
// recycled by its caller and must never be touched again. A phase panic
// on the lane is carried back to the executor through the task group's
// join and handled identically to an inline panic.
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
		r := recover()
		if r == nil && e.wavePanicked {
			r, e.wavePanicked, e.wavePanicVal = e.wavePanicVal, false, nil
		}
		if r != nil {
			e.poisoned = true
			err := fmt.Errorf("%w: %v", ErrPoisoned, r)
			for _, f := range sc.order[sc.resolved:] {
				f.resolve(0, [2]*NodeT{}, err)
			}
		}
	}()
	e.stats.wave()
	sc.waveN++

	// Fault-injection crash point for the flush path: an injected error
	// rides the wave's own panic recovery into a poisoned engine — every
	// in-flight future fails, exactly like a genuine executor crash.
	if r := e.opts.Faults.Check("engine.wave"); r != nil && r.Err != nil {
		panic(r.Err)
	}

	if wave[0].kind == kBarrier {
		// Barriers execute arbitrary user code (snapshots park on I/O,
		// tests park on channels): never occupy a shared worker with one —
		// run it on the executor, like every wave before the lane existed.
		sc.order = append(sc.order[:0], wave[0])
		if e.timing {
			t0 := time.Now()
			if sc.spanActive && sc.stageStart[stageBarrierIdx] < 0 {
				sc.stageStart[stageBarrierIdx] = int64(t0.Sub(sc.flushT0))
			}
			e.phaseBarrier()
			sc.stageNS[stageBarrierIdx] += int64(time.Since(t0))
		} else {
			e.phaseBarrier()
		}
		return
	}
	// Tiny waves are not worth a lane hop: the task-group discipline pays
	// off when a wave's sub-batches carry real parallel steps, not for a
	// handful of requests resolved in microseconds.
	e.laneWave = e.chain != nil && len(wave) >= laneMinWave

	sc.grows = sc.grows[:0]
	sc.collapses = sc.collapses[:0]
	sc.setLeaves = sc.setLeaves[:0]
	sc.setOps = sc.setOps[:0]
	sc.values = sc.values[:0]
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
	// record. Op data must be captured before the corresponding resolve: a
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
		e.phase(phaseGrowsIdx)
	}
	if len(sc.collapses) > 0 {
		e.phase(phaseCollapsesIdx)
	}
	if len(sc.setLeaves) > 0 {
		e.phase(phaseSetLeavesIdx)
	}
	if len(sc.setOps) > 0 {
		e.phase(phaseSetOpsIdx)
	}
	if sc.mutating > 0 {
		e.phase(phaseSealWaveIdx)
	}
	if len(sc.values) > 0 {
		e.phase(phaseValuesIdx)
	}
	e.joinWave()
}

// laneMinWave is the wave size below which phases run inline even with a
// pool configured: the lane hop costs a couple of goroutine switches,
// worthwhile only when the wave's sub-batches amortize it.
const laneMinWave = 16

// Wave phase indices into Engine.phaseFns/laneFns (barrier phases are
// dispatched directly, not through the table).
const (
	phaseGrowsIdx = iota
	phaseCollapsesIdx
	phaseSetLeavesIdx
	phaseSetOpsIdx
	phaseSealWaveIdx
	phaseValuesIdx
	numPhases
)

// phase runs one wave phase: inline for small waves or without a pool,
// or as the next entry of the engine's lane (the lane form skips its
// body after a panicked phase, so a poisoned wave never executes further
// host calls). The funcs come from the prebuilt tables — scheduling a
// wave allocates nothing.
func (e *Engine) phase(idx int) {
	if !e.laneWave {
		e.phaseFns[idx]()
		return
	}
	e.waveWG.Add(1)
	e.chain.Go(e.laneFns[idx])
}

// joinWave waits for the wave's task group; afterwards the executor owns
// the scratch state again.
func (e *Engine) joinWave() {
	if e.laneWave {
		e.waveWG.Wait()
	}
	if e.wavePanicked {
		v := e.wavePanicVal
		e.wavePanicked, e.wavePanicVal = false, nil
		panic(v)
	}
}

// setKind labels the host machine's next steps with the sub-batch kind
// (per-kind adaptive grain); a no-op for hosts without the capability.
func (e *Engine) setKind(k pram.StepKind) {
	if e.kinder != nil {
		e.kinder.SetStepKind(k)
	}
}

func (e *Engine) phaseBarrier() {
	f := e.sc.order[0]
	e.setKind(pram.KindDefault)
	f.fn(e.host)
	e.stats.done(kBarrier)
	e.sc.resolved++
	f.seq = e.appliedSeq.Load()
	f.resolve(0, [2]*NodeT{}, nil)
}

func (e *Engine) phaseGrows() {
	sc := &e.sc
	e.setKind(pram.KindGrow)
	sc.growOps = sc.growOps[:0]
	for _, f := range sc.grows {
		sc.growOps = append(sc.growOps, GrowOp{Leaf: f.ref.N, Op: f.op, LeftVal: f.a, RightVal: f.b})
	}
	pairs := e.host.GrowBatch(sc.growOps)
	e.noteHeal(len(sc.grows))
	for i, f := range sc.grows {
		if sc.rec != nil {
			sc.rec = append(sc.rec, replog.Op{
				Kind: replog.OpGrow, Node: f.ref.N.ID,
				A: f.op.A, B: f.op.B, C: f.op.C,
				Left: f.a, Right: f.b,
				LeftID: pairs[i][0].ID, RightID: pairs[i][1].ID,
			})
		}
		e.stats.done(kGrow)
		sc.resolved++
		f.resolve(0, pairs[i], nil)
	}
}

func (e *Engine) phaseCollapses() {
	sc := &e.sc
	e.setKind(pram.KindCollapse)
	sc.colOps = sc.colOps[:0]
	for _, f := range sc.collapses {
		sc.colOps = append(sc.colOps, CollapseOp{Node: f.ref.N, NewValue: f.a})
	}
	e.host.CollapseBatch(sc.colOps)
	e.noteHeal(len(sc.collapses))
	for _, f := range sc.collapses {
		if sc.rec != nil {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpCollapse, Node: f.ref.N.ID, Value: f.a})
		}
		e.stats.done(kCollapse)
		sc.resolved++
		f.resolve(0, [2]*NodeT{}, nil)
	}
}

func (e *Engine) phaseSetLeaves() {
	sc := &e.sc
	e.setKind(pram.KindSet)
	sc.nodes = sc.nodes[:0]
	sc.vals = sc.vals[:0]
	for _, f := range sc.setLeaves {
		sc.nodes = append(sc.nodes, f.ref.N)
		sc.vals = append(sc.vals, f.a)
	}
	e.host.SetLeaves(sc.nodes, sc.vals)
	e.noteHeal(len(sc.setLeaves))
	for _, f := range sc.setLeaves {
		if sc.rec != nil {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpSetLeaf, Node: f.ref.N.ID, Value: f.a})
		}
		e.stats.done(kSetLeaf)
		sc.resolved++
		f.resolve(0, [2]*NodeT{}, nil)
	}
}

func (e *Engine) phaseSetOps() {
	sc := &e.sc
	e.setKind(pram.KindSet)
	sc.nodes = sc.nodes[:0]
	sc.opArgs = sc.opArgs[:0]
	for _, f := range sc.setOps {
		sc.nodes = append(sc.nodes, f.ref.N)
		sc.opArgs = append(sc.opArgs, f.op)
	}
	e.host.SetOps(sc.nodes, sc.opArgs)
	e.noteHeal(len(sc.setOps))
	for _, f := range sc.setOps {
		if sc.rec != nil {
			sc.rec = append(sc.rec, replog.Op{Kind: replog.OpSetOp, Node: f.ref.N.ID, A: f.op.A, B: f.op.B, C: f.op.C})
		}
		e.stats.done(kSetOp)
		sc.resolved++
		f.resolve(0, [2]*NodeT{}, nil)
	}
}

// phaseSealWave advances the applied sequence for a mutating wave
// (whether or not a tap is attached — the sequence is the tree state's
// log position) and, if tapped, emits the sealed change record. It runs
// before the wave's read phase and before the executor moves on, so a
// later barrier (snapshots run as barriers) always observes a log
// position consistent with the tree it reads.
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
			if sl := e.opts.Spans; sl != nil {
				sl.Add(obs.Span{
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
		}
		w.Seal()
		(*e.sc.tap)(w)
	}
}

func (e *Engine) phaseValues() {
	sc := &e.sc
	e.setKind(pram.KindValue)
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
