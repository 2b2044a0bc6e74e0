package replog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// SnapshotVersion is the one snapshot codec version this build writes and
// reads: the binary layout below. The JSON layouts of versions 1 and 2
// are refused (ErrVersion); a build from before this cut-off that reads
// them can re-anchor such a snapshot in this layout.
//
// The version-3 layout. Unsigned integers are uvarints and signed ones
// zigzag varints, both as encoding/binary writes them:
//
//	magic    "\x89DTS"
//	version  3
//	ring     kind length, kind bytes, modulus (signed)
//	header   seed, tour (one byte, 0 or 1), seq, epoch, slots, node count
//	nodes    per live node, in ascending ID order: the ID's distance from
//	         the previous ID minus one (the first node: its ID); parent,
//	         left and right as ID+1 (0 = none); then a leaf's value, or an
//	         internal node's A, B and C (signed). A node is a leaf when it
//	         has no left child.
//	sum      FNV-1a 64 of every byte before it, 8 bytes little-endian
//
// Every binary version ends in that trailer, so Decode checks it before it
// reads the version: a failed checksum is always corruption, and a version
// it cannot read is ErrVersion.
const SnapshotVersion = 3

// snapMagic opens every snapshot. Its first byte is not valid UTF-8, so
// a JSON snapshot of versions 1 and 2, which opens with '{', is told
// apart and refused by name.
var snapMagic = []byte("\x89DTS")

// minNodeBytes is the smallest encoding of one node (ID delta, three
// links, a value): Decode bounds the node count by it before allocating.
const minNodeBytes = 5

// maxSlots bounds a snapshot's declared ID slots. Core packs node IDs into
// 32 bits of its schedule keys, so no larger tree can be contracted, and
// Tree allocates a pointer per slot: unbounded, a 200-byte snapshot could
// ask for terabytes.
const maxSlots = 1 << 32

// Snapshot errors.
var (
	// ErrVersion reports a snapshot codec version this build cannot read.
	ErrVersion = errors.New("replog: unsupported snapshot version")
	// ErrSnapshotCorrupt reports snapshot bytes that fail verification: a
	// checksum mismatch, a truncated or malformed layout, or a field out
	// of range.
	ErrSnapshotCorrupt = errors.New("replog: corrupt snapshot")
)

// RingSpec names a semiring in the wire format. Kind uses the same names
// as the dyntcd create API (mod|minplus|maxplus|bool|maxmin); Mod is the
// modulus for Kind "mod".
type RingSpec struct {
	Kind string
	Mod  int64
}

// SpecOfRing returns the wire spec of a ring.
func SpecOfRing(r semiring.Ring) (RingSpec, error) {
	switch rr := r.(type) {
	case semiring.ModRing:
		return RingSpec{Kind: "mod", Mod: rr.P}, nil
	case semiring.MinPlus:
		return RingSpec{Kind: "minplus"}, nil
	case semiring.MaxPlus:
		return RingSpec{Kind: "maxplus"}, nil
	case semiring.Bool:
		return RingSpec{Kind: "bool"}, nil
	case semiring.MaxMin:
		return RingSpec{Kind: "maxmin"}, nil
	}
	return RingSpec{}, fmt.Errorf("replog: ring %q has no wire spec", r.Name())
}

// Ring materializes the spec.
func (s RingSpec) Ring() (semiring.Ring, error) {
	switch s.Kind {
	case "mod":
		if s.Mod < 2 || s.Mod >= 1<<31 {
			return nil, fmt.Errorf("replog: bad modulus %d", s.Mod)
		}
		return semiring.NewMod(s.Mod), nil
	case "minplus":
		return semiring.MinPlus{}, nil
	case "maxplus":
		return semiring.MaxPlus{}, nil
	case "bool":
		return semiring.Bool{}, nil
	case "maxmin":
		return semiring.MaxMin{}, nil
	}
	return nil, fmt.Errorf("replog: unknown ring kind %q", s.Kind)
}

// SnapNode is one live node of a snapshot. Links are node IDs; -1 means
// none. Internal nodes carry the operation coefficients, leaves the value.
type SnapNode struct {
	ID, Parent, Left, Right int
	A, B, C, Value          int64
}

// Snapshot is a full serialized expression tree plus the replication
// metadata needed to continue its wave stream: the PRNG seed (so a
// restored contraction is deterministic), whether the §5 tour is
// maintained, and the applied-wave sequence number the tree state
// reflects.
//
// Encoding is byte-deterministic: live nodes are in ascending ID order and
// every field has one encoding, so two equal tree states always encode to
// identical bytes — the property the replication tests pin.
type Snapshot struct {
	Ring RingSpec
	Seed uint64
	Tour bool
	Seq  uint64
	// Epoch is the leadership term the captured state was produced under;
	// a follower restored from this snapshot rejects waves from older
	// epochs. Zero reads as the initial epoch 1.
	Epoch uint64
	// Slots is len(tree.Nodes) including deleted (nil) slots: restoring it
	// exactly keeps future grow ID assignment identical to the leader's.
	Slots int
	// Nodes lists the live nodes in strictly ascending ID order.
	Nodes []SnapNode
}

// Capture serializes t (plus seed / tour / seq / epoch metadata) into a
// snapshot. The caller must hold the single-writer right to t (direct
// owner, or inside an engine barrier).
func Capture(t *tree.Tree, seed uint64, tour bool, seq, epoch uint64) (*Snapshot, error) {
	spec, err := SpecOfRing(t.Ring)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		Ring:  spec,
		Seed:  seed,
		Tour:  tour,
		Seq:   seq,
		Epoch: epoch,
		Slots: len(t.Nodes),
		Nodes: make([]SnapNode, 0, t.Len()),
	}
	id := func(n *tree.Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	// t.Nodes is indexed by ID, so this walk emits IDs in ascending order.
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		sn := SnapNode{
			ID:     n.ID,
			Parent: id(n.Parent),
			Left:   id(n.Left),
			Right:  id(n.Right),
		}
		if n.IsLeaf() {
			sn.Value = n.Value
		} else {
			sn.A, sn.B, sn.C = n.Op.A, n.Op.B, n.Op.C
		}
		s.Nodes = append(s.Nodes, sn)
	}
	return s, nil
}

// check verifies what Encode and Tree rely on: the slot count in range,
// live IDs strictly ascending inside it, and every link -1 or inside it.
func (s *Snapshot) check() error {
	if s.Slots < 0 || uint64(s.Slots) >= maxSlots {
		return fmt.Errorf("%w: %d slots, limit %d", ErrSnapshotCorrupt, s.Slots, uint64(maxSlots-1))
	}
	if len(s.Nodes) > s.Slots {
		return fmt.Errorf("%w: %d nodes in %d slots", ErrSnapshotCorrupt, len(s.Nodes), s.Slots)
	}
	prev := -1
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.ID <= prev || n.ID >= s.Slots {
			return fmt.Errorf("%w: node ID %d after %d in %d slots", ErrSnapshotCorrupt, n.ID, prev, s.Slots)
		}
		prev = n.ID
		for _, l := range [3]int{n.Parent, n.Left, n.Right} {
			if l < -1 || l >= s.Slots {
				return fmt.Errorf("%w: node %d links to %d", ErrSnapshotCorrupt, n.ID, l)
			}
		}
	}
	return nil
}

// fnv1a is the checksum of the binary layout.
func fnv1a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Encode marshals the snapshot to its canonical byte form.
func (s *Snapshot) Encode() ([]byte, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+len(s.Ring.Kind)+14*len(s.Nodes))
	b = append(b, snapMagic...)
	b = binary.AppendUvarint(b, SnapshotVersion)
	b = binary.AppendUvarint(b, uint64(len(s.Ring.Kind)))
	b = append(b, s.Ring.Kind...)
	b = binary.AppendVarint(b, s.Ring.Mod)
	b = binary.AppendUvarint(b, s.Seed)
	var tour byte
	if s.Tour {
		tour = 1
	}
	b = append(b, tour)
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, s.Epoch)
	b = binary.AppendUvarint(b, uint64(s.Slots))
	b = binary.AppendUvarint(b, uint64(len(s.Nodes)))
	prev := -1
	for i := range s.Nodes {
		n := &s.Nodes[i]
		b = binary.AppendUvarint(b, uint64(n.ID-prev-1))
		prev = n.ID
		b = binary.AppendUvarint(b, uint64(n.Parent+1))
		b = binary.AppendUvarint(b, uint64(n.Left+1))
		b = binary.AppendUvarint(b, uint64(n.Right+1))
		if n.Left == -1 {
			b = binary.AppendVarint(b, n.Value)
		} else {
			b = binary.AppendVarint(b, n.A)
			b = binary.AppendVarint(b, n.B)
			b = binary.AppendVarint(b, n.C)
		}
	}
	return binary.LittleEndian.AppendUint64(b, fnv1a(b)), nil
}

// Decode parses and verifies a snapshot in the layout Encode writes. A
// JSON snapshot (versions 1 and 2, which opens with an object) is
// ErrVersion, and any other bytes without the magic ErrSnapshotCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	if bytes.HasPrefix(data, snapMagic) {
		return decodeBinary(data)
	}
	if rest := bytes.TrimLeft(data, " \t\r\n"); len(rest) > 0 && rest[0] == '{' {
		return nil, fmt.Errorf("%w: a JSON snapshot (versions 1 and 2); this build reads only version %d, "+
			"so re-anchor it with a build that still reads JSON", ErrVersion, SnapshotVersion)
	}
	return nil, fmt.Errorf("%w: not a snapshot", ErrSnapshotCorrupt)
}

// snapReader consumes the binary layouts: a snapshot's, and a wave
// record's (record.go). The first malformed field sets err, wrapping bad,
// and empties b, so every later read fails too and the caller checks err
// once. A varint must be in its shortest form, the only one the encoders
// write.
type snapReader struct {
	b   []byte
	err error
	bad error
}

func (r *snapReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: bad %s", r.bad, what)
	}
	r.b = nil
}

// take consumes an n-byte varint, n as encoding/binary reports it.
func (r *snapReader) take(n int, what string) bool {
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail(what)
		return false
	}
	r.b = r.b[n:]
	return true
}

func (r *snapReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if !r.take(n, what) {
		return 0
	}
	return v
}

func (r *snapReader) varint(what string) int64 {
	v, n := binary.Varint(r.b)
	if !r.take(n, what) {
		return 0
	}
	return v
}

// id reads an ID-sized unsigned field: anything at or past maxSlots is
// out of range for every snapshot, which keeps the int arithmetic on it
// from overflowing.
func (r *snapReader) id(what string) int {
	v := r.uvarint(what)
	if v >= maxSlots {
		r.fail(what)
		return 0
	}
	return int(v)
}

func decodeBinary(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotCorrupt, len(data))
	}
	body := data[:len(data)-8]
	if fnv1a(body) != binary.LittleEndian.Uint64(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	r := &snapReader{b: body[len(snapMagic):], bad: ErrSnapshotCorrupt}
	if v := r.uvarint("version"); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: binary version %d (this build reads %d)", ErrVersion, v, SnapshotVersion)
	}
	s := &Snapshot{}
	if k := r.uvarint("ring kind"); k <= uint64(len(r.b)) {
		s.Ring.Kind = string(r.b[:k])
		r.b = r.b[k:]
	} else {
		r.fail("ring kind")
	}
	s.Ring.Mod = r.varint("modulus")
	s.Seed = r.uvarint("seed")
	if len(r.b) > 0 && r.b[0] <= 1 {
		s.Tour = r.b[0] == 1
		r.b = r.b[1:]
	} else {
		r.fail("tour flag")
	}
	s.Seq = r.uvarint("seq")
	s.Epoch = r.uvarint("epoch")
	s.Slots = r.id("slots")
	count := r.uvarint("node count")
	if r.err != nil {
		return nil, r.err
	}
	if count > uint64(len(r.b)/minNodeBytes) {
		return nil, fmt.Errorf("%w: %d nodes in %d bytes", ErrSnapshotCorrupt, count, len(r.b))
	}
	s.Nodes = make([]SnapNode, count)
	prev := -1
	for i := range s.Nodes {
		n := &s.Nodes[i]
		n.ID = prev + 1 + r.id("node ID")
		prev = n.ID
		n.Parent = r.id("parent") - 1
		n.Left = r.id("left") - 1
		n.Right = r.id("right") - 1
		if n.Left == -1 {
			n.Value = r.varint("value")
		} else {
			n.A, n.B, n.C = r.varint("A"), r.varint("B"), r.varint("C")
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(r.b))
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// EpochOrDefault returns the snapshot's epoch, mapping the zero value to
// the initial epoch 1.
func (s *Snapshot) EpochOrDefault() uint64 {
	if s.Epoch == 0 {
		return 1
	}
	return s.Epoch
}

// Tree materializes the snapshot's expression tree: exact node IDs, exact
// slot count (holes included), validated structure, and every value and
// coefficient reduced into the ring (tree.Restore).
func (s *Snapshot) Tree() (*tree.Tree, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	r, err := s.Ring.Ring()
	if err != nil {
		return nil, err
	}
	nodes := make([]tree.RestoreNode, len(s.Nodes))
	for i, sn := range s.Nodes {
		nodes[i] = tree.RestoreNode{
			ID:     sn.ID,
			Parent: sn.Parent,
			Left:   sn.Left,
			Right:  sn.Right,
			Op:     semiring.Op{A: sn.A, B: sn.B, C: sn.C},
			Value:  sn.Value,
		}
	}
	return tree.Restore(r, s.Slots, nodes)
}
