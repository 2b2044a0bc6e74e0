// Package replog is the durability and replication layer over the
// request-coalescing engine: wave change-log records, an in-memory ring /
// append-only file log, and a versioned snapshot codec for expression
// trees.
//
// The engine (internal/engine) already produces exactly the artifact a
// replication system needs: ordered, conflict-free executed *waves*. Each
// wave is a set of node-disjoint mutations applied as at most one call to
// each core batch entry point, in a fixed kind order — so a wave replayed
// through the same entry points, against the same pre-wave tree, yields a
// bit-identical post-wave tree, including the dense node IDs assigned by
// grows. That makes the executed-wave stream a deterministic change log:
//
//   - Snapshot (snapshot.go): the full tree (structure + labels + PRNG
//     seed + applied-wave sequence number) captured through an engine
//     barrier into a versioned, byte-deterministic codec.
//   - Wave log (log.go): every executed mutating wave appended — sequence
//     number, the ops with their arguments and assigned IDs, the post-wave
//     root value, and a content checksum — to a bounded in-memory ring
//     plus an optional append-only JSONL file.
//   - Catch-up: a follower bootstraps from a snapshot at sequence S and
//     applies waves S+1, S+2, … in order; the recorded grow IDs and
//     post-wave roots let it verify convergence after every wave.
//
// This mirrors how change-propagation-based batch-dynamic tree systems
// (Acar et al. 2020) treat the batch as the unit of state evolution:
// persisting and shipping batches is the natural replication granule.
package replog

import (
	"fmt"
	"hash/fnv"
)

// OpKind enumerates the request kinds an engine op can carry. The
// mutating kinds make up waves; the reads (value / root queries) ride the
// same op type from client to engine but are never logged, and a wave
// that carries one fails replay as an unknown kind.
type OpKind uint8

// Op kinds: the mutating ones in the fixed order batches execute within a
// wave, then the reads.
const (
	OpGrow OpKind = iota + 1
	OpCollapse
	OpSetLeaf
	OpSetOp
	OpValue
	OpRoot
)

var opKindNames = [...]string{OpGrow: "grow", OpCollapse: "collapse", OpSetLeaf: "set-leaf",
	OpSetOp: "set-op", OpValue: "value", OpRoot: "root"}

func (k OpKind) String() string {
	if k >= OpGrow && k <= OpRoot {
		return opKindNames[k]
	}
	return fmt.Sprintf("op-kind(%d)", uint8(k))
}

// ParseOpKind returns the kind String names, and false for no kind.
func ParseOpKind(name string) (OpKind, bool) {
	for k := OpGrow; k <= OpRoot; k++ {
		if opKindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Mutates reports whether ops of kind k change the tree (and are logged).
func (k OpKind) Mutates() bool { return k >= OpGrow && k <= OpSetOp }

// Op is one request op, addressed by dense tree node ID (stable for a
// node's lifetime, deterministic under replay). An engine request is an
// ordered list of them, and a logged wave holds the mutating ones.
type Op struct {
	Kind OpKind `json:"kind"`
	Node int    `json:"node"` // every kind but root

	// A, B, C are the symmetric bilinear operation coefficients
	// (grow, set-op).
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
	C int64 `json:"c,omitempty"`

	// Value is the new leaf value (collapse, set-leaf).
	Value int64 `json:"value,omitempty"`

	// Left, Right are the fresh leaves' values (grow).
	Left  int64 `json:"left,omitempty"`
	Right int64 `json:"right,omitempty"`

	// LeftID, RightID are the node IDs the grow assigned. ID assignment is
	// deterministic (dense, append-only), so a replayed grow must assign
	// the same IDs — recorded for verification, not reconstruction.
	LeftID  int `json:"left_id,omitempty"`
	RightID int `json:"right_id,omitempty"`
}

// Logged returns op with only the fields its kind carries — what a wave
// records and checksums for it — so a stray field a caller set (a set-leaf
// with coefficients, say) never reaches the log.
func (op Op) Logged() Op {
	out := Op{Kind: op.Kind, Node: op.Node}
	switch op.Kind {
	case OpGrow:
		out.A, out.B, out.C = op.A, op.B, op.C
		out.Left, out.Right, out.LeftID, out.RightID = op.Left, op.Right, op.LeftID, op.RightID
	case OpSetOp:
		out.A, out.B, out.C = op.A, op.B, op.C
	case OpCollapse, OpSetLeaf:
		out.Value = op.Value
	case OpRoot:
		out.Node = 0
	}
	return out
}

// Wave is one executed conflict-free wave: the unit of the change log.
// Within a wave ops appear in execution order (grows, collapses,
// set-leaves, set-ops; submission order within each kind), which is also
// the order a replay must apply them.
type Wave struct {
	// Seq is the wave's 1-based position in the engine's applied sequence.
	// Waves are contiguous: a follower at sequence S applies exactly S+1.
	Seq uint64 `json:"seq"`
	// Epoch is the leadership term that produced the wave. Every
	// promotion of a follower bumps the epoch by one; a wave carrying an
	// epoch lower than the receiver's is a late write from a demoted
	// leader and must be rejected (the fence). Zero is read as epoch 1
	// so records written before epochs existed stay valid.
	Epoch uint64 `json:"epoch,omitempty"`
	Ops   []Op   `json:"ops"`
	// Root is the root value of the expression after the wave — an O(1)
	// convergence check for every replayed wave.
	Root int64 `json:"root"`
	// Sum is the FNV-1a checksum of (Seq, Epoch, Ops, Root), with the
	// epoch word included only when Epoch is non-zero so pre-epoch
	// records stay verifiable; see Checksum/Seal/Verify.
	Sum uint64 `json:"sum"`

	// TraceID, SealedAt and AppendedAt are observability metadata: the
	// distributed trace the wave was sampled into (0 when unsampled) and
	// UnixNano timestamps taken when the engine sealed the wave and when
	// the log appended it. They ride the record so the follower can
	// attribute replication lag per stage, but they are NOT part of the
	// content checksum — two replicas of the same wave differ in clocks,
	// never in content — and they are omitted from untimed engines'
	// records, keeping the wave-log bytes of uninstrumented runs
	// identical to pre-tracing versions.
	TraceID    uint64 `json:"trace_id,omitempty"`
	SealedAt   int64  `json:"sealed_at,omitempty"`
	AppendedAt int64  `json:"appended_at,omitempty"`
}

// EpochOrDefault returns the wave's epoch, mapping the zero value (a
// record sealed before epochs existed) to the initial epoch 1.
func (w *Wave) EpochOrDefault() uint64 {
	if w.Epoch == 0 {
		return 1
	}
	return w.Epoch
}

// Checksum returns the FNV-1a 64-bit hash of the wave's content
// (everything except Sum itself).
func (w *Wave) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	u64(w.Seq)
	// Records sealed before epochs existed carry Epoch == 0 and a Sum
	// computed without the epoch word; hashing the epoch only when set
	// keeps those records verifiable. New waves are always sealed with
	// epoch >= 1, so the gate is unambiguous (mirrors the Version >= 2
	// gate in the snapshot codec).
	if w.Epoch != 0 {
		u64(w.Epoch)
	}
	u64(uint64(len(w.Ops)))
	for i := range w.Ops {
		op := &w.Ops[i]
		u64(uint64(op.Kind))
		i64(int64(op.Node))
		i64(op.A)
		i64(op.B)
		i64(op.C)
		i64(op.Value)
		i64(op.Left)
		i64(op.Right)
		i64(int64(op.LeftID))
		i64(int64(op.RightID))
	}
	i64(w.Root)
	return h.Sum64()
}

// Seal stamps the wave with its content checksum.
func (w *Wave) Seal() { w.Sum = w.Checksum() }

// Verify reports whether the wave's checksum matches its content.
func (w *Wave) Verify() bool { return w.Sum == w.Checksum() }
