package replog

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyntc/internal/faults"
	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

func mkWave(seq uint64, ops int) Wave {
	w := Wave{Seq: seq, Root: int64(seq * 10)}
	for i := 0; i < ops; i++ {
		w.Ops = append(w.Ops, Op{Kind: OpSetLeaf, Node: i, Value: int64(seq) + int64(i)})
	}
	w.Seal()
	return w
}

func TestWaveChecksum(t *testing.T) {
	w := mkWave(3, 2)
	if !w.Verify() {
		t.Fatal("sealed wave does not verify")
	}
	w.Ops[0].Value++
	if w.Verify() {
		t.Fatal("tampered wave verifies")
	}
}

// TestPreEpochWaveChecksumCompat pins the upgrade contract: a record
// sealed by a build that predates epochs carries Epoch == 0 and a Sum
// computed without the epoch word. The gated Checksum must accept such
// a record unchanged — and must cover the epoch as soon as one is
// stamped.
func TestPreEpochWaveChecksumCompat(t *testing.T) {
	w := Wave{Seq: 7, Root: 42}
	// The pre-epoch formula, by hand: Seq, op count, Root — no epoch word.
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	u64(7)  // Seq
	u64(0)  // len(Ops)
	u64(42) // Root
	w.Sum = h.Sum64()
	if !w.Verify() {
		t.Fatal("pre-epoch record (Epoch=0, sum without the epoch word) does not verify")
	}
	// Once stamped, the epoch is covered: same content at a new term must
	// not share a checksum, and a tampered epoch must fail.
	w2 := Wave{Seq: 7, Epoch: 2, Root: 42}
	w2.Seal()
	if !w2.Verify() {
		t.Fatal("epoch-stamped record does not verify")
	}
	if w2.Sum == w.Sum {
		t.Fatal("epoch is not covered by the checksum")
	}
	w2.Epoch = 3
	if w2.Verify() {
		t.Fatal("record with a tampered epoch still verifies")
	}
}

// TestWALMixedEpochUpgrade: a WAL whose prefix predates epochs (zero
// epoch, old checksum formula) followed by epoch-stamped records — the
// shape of a log that lives across the upgrade — reads cleanly with
// ReadWAL and recovers with zero bytes dropped.
func TestWALMixedEpochUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.wal")
	raw := bytes.Clone(walMagic)
	for seq := uint64(1); seq <= 3; seq++ {
		raw = append(raw, frameOf(mkWave(seq, 1))...) // Epoch == 0: sealed like a pre-epoch build
	}
	for seq := uint64(4); seq <= 6; seq++ {
		w := Wave{Seq: seq, Epoch: 2, Root: int64(seq * 10)}
		w.Seal()
		raw = append(raw, frameOf(w)...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadWAL(path)
	if err != nil {
		t.Fatalf("mixed-version wal: %v", err)
	}
	if len(ws) != 6 {
		t.Fatalf("ReadWAL returned %d waves, want 6", len(ws))
	}
	ws2, dropped, err := RecoverWAL(path)
	if err != nil || dropped != 0 || len(ws2) != 6 {
		t.Fatalf("RecoverWAL: %d waves, %d dropped, err %v; want 6, 0, nil", len(ws2), dropped, err)
	}
}

func TestLogRingSinceAndTruncation(t *testing.T) {
	l, err := NewLog(4, "")
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(mkWave(seq, 1)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if got := l.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	if got := l.BaseSeq(); got != 7 {
		t.Fatalf("BaseSeq = %d, want 7 (capacity 4)", got)
	}
	ws, err := l.Since(8)
	if err != nil {
		t.Fatalf("Since(8): %v", err)
	}
	if len(ws) != 2 || ws[0].Seq != 9 || ws[1].Seq != 10 {
		t.Fatalf("Since(8) = %v", ws)
	}
	// Exactly at the retention boundary: wave 7 is the oldest retained, so
	// Since(6) must work and Since(5) must report truncation.
	if ws, err = l.Since(6); err != nil || len(ws) != 4 {
		t.Fatalf("Since(6) = %d waves, err %v; want 4, nil", len(ws), err)
	}
	if _, err = l.Since(5); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(5) err = %v, want ErrTruncated", err)
	}
	if ws, err = l.Since(10); err != nil || len(ws) != 0 {
		t.Fatalf("Since(10) = %v, %v; want empty", ws, err)
	}
	// Gap and corruption rejection.
	if err := l.Append(mkWave(12, 1)); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append err = %v, want ErrGap", err)
	}
	bad := mkWave(11, 1)
	bad.Root++
	if err := l.Append(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt append err = %v, want ErrCorrupt", err)
	}
}

func TestLogMidStreamBase(t *testing.T) {
	// A log attached after a snapshot restore starts mid-stream.
	l, _ := NewLog(8, "")
	if err := l.Append(mkWave(41, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkWave(42, 1)); err != nil {
		t.Fatal(err)
	}
	if ws, err := l.Since(40); err != nil || len(ws) != 2 {
		t.Fatalf("Since(40) = %d waves, err %v", len(ws), err)
	}
	if _, err := l.Since(39); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(39) err = %v, want ErrTruncated", err)
	}
}

func TestWALFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.wal")
	l, err := NewLog(2, path) // ring smaller than the stream: file keeps all
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(mkWave(seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 6 {
		t.Fatalf("ReadWAL returned %d waves, want 6", len(ws))
	}
	for i, w := range ws {
		if w.Seq != uint64(i+1) || !w.Verify() {
			t.Fatalf("wave %d: seq %d verify %v", i, w.Seq, w.Verify())
		}
	}
}

func TestWALRotatesStaleFile(t *testing.T) {
	// A restarted process reopens the same path with a fresh sequence; the
	// stale stream must be rotated aside, not appended into (which would
	// make the file non-contiguous and unreplayable).
	path := filepath.Join(t.TempDir(), "tree.wal")
	l1, err := NewLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l1.Append(mkWave(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(mkWave(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || len(ws[0].Ops) != 2 {
		t.Fatalf("fresh wal has %d waves, want the restarted stream only", len(ws))
	}
	old, err := filepath.Glob(path + ".*.old")
	if err != nil || len(old) != 1 {
		t.Fatalf("rotated files: %v (%v)", old, err)
	}
	if ws, err = ReadWAL(old[0]); err != nil || len(ws) != 3 {
		t.Fatalf("rotated wal: %d waves, err %v; want 3, nil", len(ws), err)
	}
}

func TestMirrorFailureKeepsRingLive(t *testing.T) {
	// A file-mirror failure must not freeze the in-memory ring: the leader
	// keeps acknowledging writes, so replication must keep flowing, with
	// the sticky error surfaced via Err.
	path := filepath.Join(t.TempDir(), "tree.wal")
	l, err := NewLog(8, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkWave(1, 1)); err != nil {
		t.Fatal(err)
	}
	// Simulate the disk going away under the record writer.
	in := faults.New(1)
	in.Add(faults.Rule{Site: "wal.append", Err: errors.New("disk gone"), Times: 1})
	l.SetFaults(in)
	if err := l.Append(mkWave(2, 1)); err == nil {
		t.Fatal("mirror failure not reported")
	}
	if l.Err() == nil {
		t.Fatal("sticky mirror error not recorded")
	}
	// Ring still advances and serves catch-up.
	if err := l.Append(mkWave(3, 1)); err != nil {
		t.Fatalf("ring append after mirror failure: %v", err)
	}
	ws, err := l.Since(0)
	if err != nil || len(ws) != 3 {
		t.Fatalf("Since(0) after mirror failure: %d waves, err %v", len(ws), err)
	}
}

func TestRingSpecRoundTrip(t *testing.T) {
	rings := []semiring.Ring{
		semiring.NewMod(97), semiring.NewMod(1_000_000_007),
		semiring.MinPlus{}, semiring.MaxPlus{}, semiring.Bool{}, semiring.MaxMin{},
	}
	for _, r := range rings {
		spec, err := SpecOfRing(r)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		back, err := spec.Ring()
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if back.Name() != r.Name() {
			t.Fatalf("round trip %s -> %s", r.Name(), back.Name())
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		src := prng.New(seed)
		r := semiring.NewMod(1_000_000_007)
		orig := tree.Generate(r, src, 200, tree.ShapeRandom)
		// Punch holes: collapse some grown pairs so deleted slots exist.
		for _, n := range orig.Leaves() {
			p := n.Parent
			if p != nil && !p.IsLeaf() && p.Left.IsLeaf() && p.Right.IsLeaf() && src.Intn(4) == 0 {
				orig.DeleteChildren(p, src.Int63()%1000)
			}
		}
		snap, err := Capture(orig, seed, false, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Seq != 7 || dec.Seed != seed || dec.Slots != len(orig.Nodes) {
			t.Fatalf("metadata: %+v", dec)
		}
		restored, err := dec.Tree()
		if err != nil {
			t.Fatal(err)
		}
		if restored.Len() != orig.Len() || len(restored.Nodes) != len(orig.Nodes) {
			t.Fatalf("size: %d/%d vs %d/%d", restored.Len(), len(restored.Nodes), orig.Len(), len(orig.Nodes))
		}
		if restored.Eval() != orig.Eval() {
			t.Fatalf("eval: %d vs %d", restored.Eval(), orig.Eval())
		}
		// Byte determinism: capture of the restored tree encodes identically.
		snap2, err := Capture(restored, seed, false, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		data2, err := snap2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatal("snapshot of restored tree is not byte-identical")
		}
	}
}

// TestSnapshotRejectsTampering: every flipped byte and every truncation of
// a snapshot fails as ErrSnapshotCorrupt; an unknown version that carries
// a valid checksum fails as ErrVersion; and so does a JSON snapshot.
func TestSnapshotRejectsTampering(t *testing.T) {
	src := prng.New(1)
	orig := tree.Generate(semiring.NewMod(97), src, 10, tree.ShapeBalanced)
	snap, _ := Capture(orig, 1, false, 0, 1)
	data, _ := snap.Encode()
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(data)
			bad[i] ^= mask
			if _, err := Decode(bad); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("byte %d ^ %#x: err = %v, want ErrSnapshotCorrupt", i, mask, err)
			}
		}
	}
	for n := range data {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("first %d of %d bytes: err = %v, want ErrSnapshotCorrupt", n, len(data), err)
		}
	}
	// The version follows the magic; 99 fits one uvarint byte like 3 does.
	v99 := bytes.Clone(data)
	v99[len(snapMagic)] = 99
	if _, err := Decode(reseal(v99)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99: err = %v, want ErrVersion", err)
	}
	// A byte slipped in before the trailer leaves bytes after the last node.
	long := append(bytes.Clone(data[:len(data)-8]), 0)
	if _, err := Decode(reseal(append(long, make([]byte, 8)...))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrSnapshotCorrupt", err)
	}

	// A JSON snapshot, of either version the fixtures hold and whatever
	// its fields say, is refused by name: the cut-off, not corruption.
	for _, name := range []string{"snapshot-v1.json", "snapshot-v2.json"} {
		js := readFixture(t, name)
		for _, body := range [][]byte{js, append([]byte(" \n"), js...), bytes.Replace(js, []byte(`"version":`), []byte(`"version":99,"v":`), 1)} {
			if _, err := Decode(body); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "JSON") {
				t.Fatalf("%s: err = %v, want ErrVersion naming JSON", name, err)
			}
		}
	}
}
