package dyntc

import (
	"errors"
	"fmt"

	"dyntc/internal/core"
	"dyntc/internal/engine"
	"dyntc/internal/euler"
	"dyntc/internal/pram"
	"dyntc/internal/replog"
)

// This file is the durability and replication face of the package
// (internal/replog): tree snapshots, the executed-wave change log, and
// deterministic replay into replicas.
//
// The engine's executed waves are conflict-free, ordered batches — a
// ready-made change log. A snapshot captures the whole tree (structure +
// labels + PRNG seed + applied-wave sequence number) in a versioned,
// byte-deterministic codec; a replica restores the snapshot (RestoreExpr,
// or Forest.Restore for a served replica) and applies the waves after it
// in order (Engine.ApplyWave), verifying the recorded grow IDs and the
// post-wave root value at every step. Replay is exact: a restored tree
// re-assigns the same dense node IDs the leader did, so replica and
// leader states are structurally identical, not just value-equal.

// Wave is one executed mutating wave: the unit of the change log.
type Wave = replog.Wave

// WaveOp is one mutating request of a Wave, addressed by dense node ID.
type WaveOp = replog.Op

// WaveLog is a bounded in-memory ring of recent waves with an optional
// append-only file mirror (see NewWaveLog). Both hold each wave as one
// compact binary record; Tail copies the records after a sequence out in
// the WAL file's framing, the bytes a leader ships to its followers.
type WaveLog = replog.Log

// ErrWaveGap reports a wave applied out of order (sequence skipped).
var ErrWaveGap = errors.New("dyntc: wave sequence gap")

// ErrDiverged reports a replayed wave whose verification failed: the
// follower's state no longer matches the leader's log.
var ErrDiverged = errors.New("dyntc: replica diverged from wave log")

// ErrStaleEpoch reports a wave stamped with an epoch below the
// receiver's: a late write from a demoted leader, rejected by the fence.
var ErrStaleEpoch = replog.ErrStaleEpoch

// NewWaveLog creates a wave change-log retaining up to capacity waves in
// memory (a default when <= 0); a non-empty path mirrors every append to
// an append-only binary WAL file, the one WAL encoding. Attach it to an
// engine with Engine.SetWaveTap(log.Append-wrapper) or
// BatchOptions.WaveTap.
func NewWaveLog(capacity int, path string) (*WaveLog, error) {
	return replog.NewLog(capacity, path)
}

// RecoverWaveLog reads a wave file, truncating a torn or corrupt tail —
// the record a crash cut mid-append, and everything after it — down to
// the last valid wave. It returns the surviving waves and how many bytes
// were dropped; the truncation is durable, so a later strict read accepts
// the file. Use it on the startup path, where refusing a torn record
// would turn one crash into an unbootable store. A file that is not a
// binary WAL (a JSONL one an older build wrote) is refused with an error
// and left untouched.
func RecoverWaveLog(path string) ([]Wave, int64, error) { return replog.RecoverWAL(path) }

// Snapshot serializes the expression — structure, labels, PRNG seed,
// whether the tour is maintained — together with the applied-wave
// sequence number seq the state reflects, into the versioned codec of
// internal/replog. The encoding is byte-deterministic: equal states
// produce identical bytes.
//
// Snapshot requires the single-writer right to the Expr: call it directly
// only when no Engine serves the Expr; behind an Engine, use
// Engine.Snapshot, which runs it inside a barrier.
func (e *Expr) Snapshot(seq uint64) ([]byte, error) {
	snap, err := replog.Capture(e.t, e.seed, e.tour != nil, seq, e.Epoch())
	if err != nil {
		return nil, err
	}
	return snap.Encode()
}

// Epoch returns the leadership term the Expr's waves are stamped with
// (1 for a fresh tree; restored trees carry their snapshot's epoch).
func (e *Expr) Epoch() uint64 {
	if e.epoch == 0 {
		return 1
	}
	return e.epoch
}

// AdoptEpoch advances the Expr's epoch (it never goes backwards). Like
// Snapshot, it requires the single-writer right: call it directly only
// when no Engine serves the Expr, or inside an engine barrier. Normal
// code never needs it — epochs move via replayed waves — but promoting a
// replica to the next term (epoch+1, then Engine.SetEpoch) and startup
// recovery replaying a WAL that spans a failover do.
func (e *Expr) AdoptEpoch(epoch uint64) {
	if epoch > e.Epoch() {
		e.epoch = epoch
	}
}

// RestoreExpr rebuilds an Expr from a snapshot and returns it with the
// snapshot's applied-wave sequence number. The seed and tour setting come
// from the snapshot, so the options are ignored: a replica must contract
// deterministically like its leader.
func RestoreExpr(data []byte, _ ...Option) (*Expr, uint64, error) {
	snap, err := replog.Decode(data)
	if err != nil {
		return nil, 0, err
	}
	t, err := snap.Tree()
	if err != nil {
		return nil, 0, err
	}
	m := pram.Sequential()
	e := &Expr{
		t:     t,
		con:   core.New(t, snap.Seed, m),
		mach:  m,
		seed:  snap.Seed,
		epoch: snap.EpochOrDefault(),
	}
	if snap.Tour {
		e.tour = euler.New(t, snap.Seed^0x9E3779B97F4A7C15)
	}
	return e, snap.Seq, nil
}

// ApplyWave replays one logged wave onto the Expr: the wave's ops execute
// through the same batch entry points the leader used, in the same order.
// Every step is verified — checksum, target liveness and kind, the node
// IDs assigned by grows, and the post-wave root value — so divergence is
// detected at the wave that introduces it, not at the end of the log.
//
// ApplyWave does not check sequence contiguity (the Expr does not track a
// sequence number); Engine.ApplyWave adds in-order tracking.
func (e *Expr) ApplyWave(w Wave) error {
	if !w.Verify() {
		return fmt.Errorf("%w: wave %d checksum mismatch", ErrDiverged, w.Seq)
	}
	node := func(id int) (*Node, error) {
		if id < 0 || id >= len(e.t.Nodes) || e.t.Nodes[id] == nil {
			return nil, fmt.Errorf("%w: wave %d targets dead node %d", ErrDiverged, w.Seq, id)
		}
		return e.t.Nodes[id], nil
	}

	// Group by kind, preserving recorded order (which is execution order:
	// grows, collapses, set-leaves, set-ops).
	var growIdx []int
	var grows []GrowOp
	var collapses []CollapseOp
	var setLeafNodes []*Node
	var setLeafVals []int64
	var setOpNodes []*Node
	var setOpOps []Op

	for i := range w.Ops {
		op := &w.Ops[i]
		n, err := node(op.Node)
		if err != nil {
			return err
		}
		switch op.Kind {
		case replog.OpGrow:
			if !n.IsLeaf() {
				return fmt.Errorf("%w: wave %d grow targets internal node %d", ErrDiverged, w.Seq, op.Node)
			}
			growIdx = append(growIdx, i)
			grows = append(grows, GrowOp{Leaf: n, Op: Op{A: op.A, B: op.B, C: op.C}, LeftVal: op.Left, RightVal: op.Right})
		case replog.OpCollapse:
			if n.IsLeaf() || !n.Left.IsLeaf() || !n.Right.IsLeaf() {
				return fmt.Errorf("%w: wave %d collapse target %d not collapsible", ErrDiverged, w.Seq, op.Node)
			}
			collapses = append(collapses, CollapseOp{Node: n, NewValue: op.Value})
		case replog.OpSetLeaf:
			if !n.IsLeaf() {
				return fmt.Errorf("%w: wave %d set-leaf targets internal node %d", ErrDiverged, w.Seq, op.Node)
			}
			setLeafNodes = append(setLeafNodes, n)
			setLeafVals = append(setLeafVals, op.Value)
		case replog.OpSetOp:
			if n.IsLeaf() {
				return fmt.Errorf("%w: wave %d set-op targets leaf %d", ErrDiverged, w.Seq, op.Node)
			}
			setOpNodes = append(setOpNodes, n)
			setOpOps = append(setOpOps, Op{A: op.A, B: op.B, C: op.C})
		default:
			return fmt.Errorf("%w: wave %d has unknown op kind %d", ErrDiverged, w.Seq, op.Kind)
		}
	}

	if len(grows) > 0 {
		pairs := e.GrowBatch(grows)
		for j, i := range growIdx {
			op := &w.Ops[i]
			if pairs[j][0].ID != op.LeftID || pairs[j][1].ID != op.RightID {
				return fmt.Errorf("%w: wave %d grow at node %d assigned IDs (%d,%d), log says (%d,%d)",
					ErrDiverged, w.Seq, op.Node, pairs[j][0].ID, pairs[j][1].ID, op.LeftID, op.RightID)
			}
		}
	}
	if len(collapses) > 0 {
		e.CollapseBatch(collapses)
	}
	if len(setLeafNodes) > 0 {
		e.SetLeaves(setLeafNodes, setLeafVals)
	}
	if len(setOpNodes) > 0 {
		e.SetOps(setOpNodes, setOpOps)
	}
	if root := e.Root(); root != w.Root {
		return fmt.Errorf("%w: after wave %d root is %d, log says %d", ErrDiverged, w.Seq, root, w.Root)
	}
	// A verified wave from a newer leadership term moves the replica into
	// that term (epoch fencing rejects the reverse direction; see
	// applyNext, which also checks contiguity).
	e.AdoptEpoch(w.EpochOrDefault())
	return nil
}

// applyNext applies w to e, which sits at applied-wave sequence seq, and
// returns the sequence e sits at afterwards. It holds the rules every
// replica shares: a wave at or before seq is skipped (idempotent
// re-delivery); a wave stamped with an epoch below e's is ErrStaleEpoch —
// the fence against a demoted leader's late writes — while a higher epoch
// is adopted; a skipped-ahead sequence is ErrWaveGap — fetch the missing
// range or re-bootstrap from a snapshot.
func applyNext(e *Expr, seq uint64, w Wave) (uint64, error) {
	if w.Seq <= seq {
		return seq, nil
	}
	if ep := w.EpochOrDefault(); ep < e.Epoch() {
		return seq, fmt.Errorf("%w: replica at epoch %d, wave %d carries epoch %d",
			ErrStaleEpoch, e.Epoch(), w.Seq, ep)
	}
	if w.Seq != seq+1 {
		return seq, fmt.Errorf("%w: at %d, got wave %d", ErrWaveGap, seq, w.Seq)
	}
	if err := e.ApplyWave(w); err != nil {
		return seq, err
	}
	return w.Seq, nil
}

// ApplyWave replays one logged wave onto the served tree through an
// engine barrier, under applyNext's rules: waves at or before AppliedSeq
// are skipped (idempotent re-delivery), an older epoch is ErrStaleEpoch,
// a hole is ErrWaveGap, and a verified wave (Expr.ApplyWave) advances
// AppliedSeq and the engine's epoch. It is how a replica engine catches
// up with its leader and how startup recovery replays a WAL tail. On a
// wave-tapped engine the verified wave goes to the tap before it counts
// as applied, so a replica's log holds the leader's waves, gapless.
func (en *Engine) ApplyWave(w Wave) error {
	var err error
	f := en.inner.Barrier(func(engine.Host) {
		seq := en.inner.AppliedSeq()
		var next uint64
		if next, err = applyNext(en.expr, seq, w); err != nil || next == seq {
			return
		}
		if tap := en.inner.Tap(); tap != nil {
			w.SealedAt = 0 // sealed elsewhere: no seal→append stage here
			tap(w)
		}
		en.inner.SetAppliedSeq(next)
		en.inner.SetEpoch(en.expr.Epoch())
	})
	if werr := wait(f); werr != nil {
		return werr
	}
	return err
}
