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
//     root value, and a content checksum — as one compact binary record
//     (record.go) to a bounded in-memory ring plus an optional
//     append-only WAL file of the same records.
//   - Catch-up: a follower bootstraps from a snapshot at sequence S and
//     applies waves S+1, S+2, … in order; the recorded grow IDs and
//     post-wave roots let it verify convergence after every wave.
//
// This mirrors how change-propagation-based batch-dynamic tree systems
// (Acar et al. 2020) treat the batch as the unit of state evolution:
// persisting and shipping batches is the natural replication granule.
package replog

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// FNV-1a 64 parameters, and fnvPow[k] = fnvPrime^k: FNV-1a folds a zero
// byte in as a bare multiply by the prime, so k zero bytes in a row are
// one multiply by fnvPow[k].
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// fnvWord folds v's 8 little-endian bytes into the FNV-1a state h. The
// bytes above v's highest set one are zero and take one multiply.
func fnvWord(h, v uint64) uint64 {
	n := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime
		n--
	}
	return h * fnvPow[n]
}

// Checksum returns the FNV-1a 64-bit hash of the wave's content
// (everything except Sum itself and the observability metadata): each
// field as a little-endian 64-bit word.
func (w *Wave) Checksum() uint64 {
	h := fnvWord(fnvOffset, w.Seq)
	// Records sealed before epochs existed carry Epoch == 0 and a Sum
	// computed without the epoch word; hashing the epoch only when set
	// keeps those records verifiable. New waves are always sealed with
	// epoch >= 1, so the gate is unambiguous (mirrors the Version >= 2
	// gate in the snapshot codec).
	if w.Epoch != 0 {
		h = fnvWord(h, w.Epoch)
	}
	h = fnvWord(h, uint64(len(w.Ops)))
	for i := range w.Ops {
		op := &w.Ops[i]
		h = fnvWord(h, uint64(op.Kind))
		h = fnvWord(h, uint64(op.Node))
		h = fnvWord(h, uint64(op.A))
		h = fnvWord(h, uint64(op.B))
		h = fnvWord(h, uint64(op.C))
		h = fnvWord(h, uint64(op.Value))
		h = fnvWord(h, uint64(op.Left))
		h = fnvWord(h, uint64(op.Right))
		h = fnvWord(h, uint64(op.LeftID))
		h = fnvWord(h, uint64(op.RightID))
	}
	return fnvWord(h, uint64(w.Root))
}

// Seal stamps the wave with its content checksum.
func (w *Wave) Seal() { w.Sum = w.Checksum() }

// Verify reports whether the wave's checksum matches its content.
func (w *Wave) Verify() bool { return w.Sum == w.Checksum() }

// The wave record: the one binary form of a wave, held in a Log's ring and
// written, length-prefixed, to its WAL file (log.go). Unsigned integers are
// uvarints and signed ones zigzag varints, as in the snapshot layout:
//
//	seq, epoch            unsigned
//	root                  signed
//	sum                   8 bytes little-endian (Wave.Sum)
//	trace                 unsigned (Wave.TraceID)
//	sealed, appended      signed (Wave.SealedAt, Wave.AppendedAt)
//	op count              unsigned
//	ops                   per op: kind<<1 | full (unsigned), then
//	    grow              node (unsigned), A, B, C, left, right, then
//	                      LeftID minus next and RightID minus LeftID
//	                      minus one, where next is 0 for the wave's first
//	                      grow and the previous grow's RightID plus one
//	                      after it (both 0 when IDs are dense)
//	    set-op            node, A, B, C
//	    collapse, set-leaf node, value
//	    root              nothing
//	    other kinds       node
//
// so each op carries only the fields Op.Logged keeps for its kind. An op
// that carries more (full = 1) is written whole: node, A, B, C, value,
// left, right, LeftID, RightID (signed after node), and leaves the grow
// ID chain alone. The record is canonical: decodeRecord accepts exactly
// the bytes appendRecord writes for some wave whose Sum verifies.

// errRecord reports wave record bytes that do not decode.
var errRecord = errors.New("replog: corrupt wave record")

// appendRecord appends w's record to b.
func appendRecord(b []byte, w *Wave) []byte {
	b = binary.AppendUvarint(b, w.Seq)
	b = binary.AppendUvarint(b, w.Epoch)
	b = binary.AppendVarint(b, w.Root)
	b = binary.LittleEndian.AppendUint64(b, w.Sum)
	b = binary.AppendUvarint(b, w.TraceID)
	b = binary.AppendVarint(b, w.SealedAt)
	b = binary.AppendVarint(b, w.AppendedAt)
	b = binary.AppendUvarint(b, uint64(len(w.Ops)))
	next := 0 // the first ID the next grow is expected to assign
	for i := range w.Ops {
		op := &w.Ops[i]
		if *op != op.Logged() {
			b = binary.AppendUvarint(b, uint64(op.Kind)<<1|1)
			b = binary.AppendUvarint(b, uint64(op.Node))
			for _, v := range [...]int64{op.A, op.B, op.C, op.Value, op.Left, op.Right,
				int64(op.LeftID), int64(op.RightID)} {
				b = binary.AppendVarint(b, v)
			}
			continue
		}
		b = binary.AppendUvarint(b, uint64(op.Kind)<<1)
		if op.Kind != OpRoot {
			b = binary.AppendUvarint(b, uint64(op.Node))
		}
		switch op.Kind {
		case OpGrow:
			for _, v := range [...]int64{op.A, op.B, op.C, op.Left, op.Right,
				int64(op.LeftID - next), int64(op.RightID - op.LeftID - 1)} {
				b = binary.AppendVarint(b, v)
			}
			next = op.RightID + 1
		case OpSetOp:
			for _, v := range [...]int64{op.A, op.B, op.C} {
				b = binary.AppendVarint(b, v)
			}
		case OpCollapse, OpSetLeaf:
			b = binary.AppendVarint(b, op.Value)
		}
	}
	return b
}

// decodeRecord decodes the record that is all of rec and verifies its Sum.
func decodeRecord(rec []byte) (Wave, error) {
	w, err := parseRecord(rec)
	if err == nil && !w.Verify() {
		err = fmt.Errorf("%w (seq %d)", ErrCorrupt, w.Seq)
	}
	return w, err
}

// parseRecord is decodeRecord without the Sum check.
func parseRecord(rec []byte) (Wave, error) {
	r := &snapReader{b: rec, bad: errRecord}
	var w Wave
	w.Seq = r.uvarint("seq")
	w.Epoch = r.uvarint("epoch")
	w.Root = r.varint("root")
	if len(r.b) >= 8 {
		w.Sum = binary.LittleEndian.Uint64(r.b)
		r.b = r.b[8:]
	} else {
		r.fail("sum")
	}
	w.TraceID = r.uvarint("trace ID")
	w.SealedAt = r.varint("seal time")
	w.AppendedAt = r.varint("append time")
	// Every op takes at least one byte, which bounds the allocation.
	if count := r.uvarint("op count"); count > uint64(len(r.b)) {
		r.fail("op count")
	} else if count > 0 {
		w.Ops = make([]Op, count)
	}
	next := 0
	for i := 0; i < len(w.Ops) && r.err == nil; i++ {
		op := &w.Ops[i]
		tag := r.uvarint("op kind")
		if tag>>1 > 0xff {
			r.fail("op kind")
		}
		op.Kind = OpKind(tag >> 1)
		if tag&1 == 1 {
			op.Node = int(r.uvarint("node"))
			op.A, op.B, op.C, op.Value = r.varint("A"), r.varint("B"), r.varint("C"), r.varint("value")
			op.Left, op.Right = r.varint("left"), r.varint("right")
			op.LeftID, op.RightID = int(r.varint("left ID")), int(r.varint("right ID"))
			if *op == op.Logged() {
				r.fail("whole op") // it has a shorter form
			}
			continue
		}
		if op.Kind != OpRoot {
			op.Node = int(r.uvarint("node"))
		}
		switch op.Kind {
		case OpGrow:
			op.A, op.B, op.C = r.varint("A"), r.varint("B"), r.varint("C")
			op.Left, op.Right = r.varint("left"), r.varint("right")
			op.LeftID = next + int(r.varint("left ID"))
			op.RightID = op.LeftID + 1 + int(r.varint("right ID"))
			next = op.RightID + 1
		case OpSetOp:
			op.A, op.B, op.C = r.varint("A"), r.varint("B"), r.varint("C")
		case OpCollapse, OpSetLeaf:
			op.Value = r.varint("value")
		}
	}
	if r.err != nil {
		return Wave{}, r.err
	}
	if len(r.b) != 0 {
		return Wave{}, fmt.Errorf("%w: %d trailing bytes", errRecord, len(r.b))
	}
	return w, nil
}
