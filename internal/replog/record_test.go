package replog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// growWave returns a sealed epoch-2 wave of two grows with dense IDs, a
// collapse, a set-op and a root read's logged form.
func growWave(seq uint64) Wave {
	w := Wave{Seq: seq, Epoch: 2, Root: -17, Ops: []Op{
		{Kind: OpGrow, Node: 4, A: 1, Left: 3, Right: -9, LeftID: 300, RightID: 301},
		{Kind: OpGrow, Node: 7, B: 1, C: 5, Left: 0, Right: 2, LeftID: 302, RightID: 303},
		{Kind: OpCollapse, Node: 9, Value: -1 << 40},
		{Kind: OpSetOp, Node: 0, A: 2, B: 3, C: 4},
		{Kind: OpRoot},
	}}
	w.Seal()
	return w
}

// recordWaves are waves every record test round-trips: set-leaves, grows
// (dense and not), an empty wave, a traced one, an op carrying a field
// its kind does not log, a pre-epoch one and extreme values.
func recordWaves() []Wave {
	ws := []Wave{mkWave(1, 7), growWave(2), {Seq: 3, Epoch: 1, Root: 5}}
	traced := mkWave(4, 1)
	traced.TraceID, traced.SealedAt, traced.AppendedAt = 0xfeedface, 1_760_000_000_000_000_000, -3
	stray := Wave{Seq: 5, Epoch: 3, Ops: []Op{
		{Kind: OpSetLeaf, Node: 2, Value: 8, A: 1},
		{Kind: OpGrow, Node: 1, LeftID: 9, RightID: 2},
		{Kind: OpValue, Node: 6},
		{Kind: OpKind(200), Node: -1},
	}}
	extreme := Wave{Seq: 1<<64 - 1, Epoch: 1<<64 - 1, Root: -1 << 63, Ops: []Op{
		{Kind: OpGrow, Node: 1<<63 - 1, A: -1 << 63, B: 1<<63 - 1, LeftID: -1 << 63, RightID: 1<<63 - 1},
		{Kind: OpGrow, Node: -1, LeftID: 1<<63 - 1, RightID: -1 << 63},
	}}
	ws = append(ws, traced, stray, extreme, Wave{Seq: 6, Root: 1, Ops: []Op{{Kind: OpSetLeaf, Node: 1, Value: 2}}})
	for i := range ws {
		ws[i].Seal()
	}
	return ws
}

// TestWaveRecordRoundTrip: every wave decodes from its record to an equal
// wave, every strict prefix of a record and every record with a byte
// appended fails, and a set-leaf costs kind, node and value only.
func TestWaveRecordRoundTrip(t *testing.T) {
	for _, w := range recordWaves() {
		rec := appendRecord(nil, &w)
		got, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("seq %d: %v", w.Seq, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("seq %d decodes as %+v, want %+v", w.Seq, got, w)
		}
		for n := range rec {
			if _, err := decodeRecord(rec[:n]); err == nil {
				t.Fatalf("seq %d: the first %d of %d bytes decode", w.Seq, n, len(rec))
			}
		}
		if _, err := decodeRecord(append(bytes.Clone(rec), 0)); err == nil {
			t.Fatalf("seq %d: a trailing byte decodes", w.Seq)
		}
	}
	// Seq 1, epoch 0, root 10, the sum, three zero clock fields, one op:
	// kind, node 0 and value 1 take a byte each.
	one := mkWave(1, 1)
	if n := len(appendRecord(nil, &one)); n != 1+1+1+8+3+1+3 {
		t.Fatalf("a one-set-leaf record takes %d bytes", n)
	}
}

// TestWaveRecordIsCanonical: a varint in a longer form than needed, or an
// op in its whole form when its logged form holds it, does not decode.
func TestWaveRecordIsCanonical(t *testing.T) {
	w := mkWave(1, 1)
	rec := appendRecord(nil, &w)
	// Seq 1 written as two bytes.
	long := append([]byte{0x81, 0x00}, rec[1:]...)
	if _, err := decodeRecord(long); err == nil {
		t.Fatal("a non-minimal seq decodes")
	}
	// The set-leaf in its whole form: every field after the node.
	op := w.Ops[0]
	whole := rec[:len(rec)-3]
	whole = binary.AppendUvarint(whole, uint64(op.Kind)<<1|1)
	whole = binary.AppendUvarint(whole, uint64(op.Node))
	for _, v := range [...]int64{0, 0, 0, op.Value, 0, 0, 0, 0} {
		whole = binary.AppendVarint(whole, v)
	}
	if _, err := parseRecord(whole); err == nil {
		t.Fatal("an op in its whole form decodes though its logged form holds it")
	}
}

// TestAppendAllocs: once the ring is full, appending a 7-op wave with no
// file reuses the evicted slot's buffer and allocates nothing.
func TestAppendAllocs(t *testing.T) {
	l, err := NewLog(16, "")
	if err != nil {
		t.Fatal(err)
	}
	w := mkWave(1, 7)
	next := func() {
		w.Seq++
		w.Seal()
		if err := l.Append(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("a warm Append allocates %v times", allocs)
	}
}

// TestSinceOwnsItsWaves: the ring keeps a wave's record, not the caller's
// Ops, and Tail copies records out, so changing the Ops after Append, or
// changing what was read from a Tail, does not change the next Tail.
func TestSinceOwnsItsWaves(t *testing.T) {
	l, err := NewLog(8, "")
	if err != nil {
		t.Fatal(err)
	}
	w := mkWave(1, 3)
	want := mkWave(1, 3)
	if err := l.Append(w); err != nil {
		t.Fatal(err)
	}
	w.Ops[0].Value = 99
	got, err := since(l, 0)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("Tail after the caller's change: %+v, err %v", got, err)
	}
	got[0].Ops[1].Node = 42
	again, err := since(l, 0)
	if err != nil || !reflect.DeepEqual(again[0], want) {
		t.Fatalf("Tail after a change to its last result: %+v, err %v", again, err)
	}
}

// FuzzWaveRecord: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to the same bytes and verifies. Each input is also
// tried with its Sum repaired, or mutations would rarely get past the
// checksum to the op decoder.
func FuzzWaveRecord(f *testing.F) {
	for _, w := range recordWaves() {
		f.Add(appendRecord(nil, &w))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord(t, data)
		if w, err := parseRecord(data); err == nil {
			// The sum follows seq, epoch and root.
			at := 0
			for range 3 {
				_, n := binary.Uvarint(data[at:])
				at += n
			}
			resealed := bytes.Clone(data)
			binary.LittleEndian.PutUint64(resealed[at:], w.Checksum())
			checkRecord(t, resealed)
		}
	})
}

func checkRecord(t *testing.T, data []byte) {
	w, err := decodeRecord(data)
	if err != nil {
		return
	}
	if !w.Verify() {
		t.Fatalf("decoded wave %d does not verify", w.Seq)
	}
	if enc := appendRecord(nil, &w); !bytes.Equal(enc, data) {
		t.Fatalf("wave %d re-encodes as %x, decoded from %x", w.Seq, enc, data)
	}
}

// BenchmarkWaveChecksum: the content checksum of a 7-op set-leaf wave,
// which each leader wave computes twice (Seal, then Verify in Append).
func BenchmarkWaveChecksum(b *testing.B) {
	w := mkWave(1234, 7)
	var sink uint64
	for b.Loop() {
		sink += w.Checksum()
	}
	_ = sink
}
