package replog

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dyntc/internal/faults"
)

// writeWAL appends n sealed waves to a fresh log at path and closes it.
func writeWAL(t *testing.T, path string, n int) {
	t.Helper()
	l, err := NewLog(64, path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if err := l.Append(mkWave(seq, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// frameOf returns w as a Log writes it after the WAL header: its record's
// length, then the record.
func frameOf(w Wave) []byte {
	return appendFrame(nil, appendRecord(nil, &w))
}

// appendFile appends raw bytes to the file at path.
func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWALCleanFileUntouched: a fully valid file recovers with
// zero dropped bytes and identical size.
func TestRecoverWALCleanFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.wal")
	writeWAL(t, path, 5)
	before, _ := os.Stat(path)
	ws, dropped, err := RecoverWAL(path)
	if err != nil || dropped != 0 || len(ws) != 5 {
		t.Fatalf("clean recover: %d waves, %d dropped, err %v", len(ws), dropped, err)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size() {
		t.Fatalf("clean file resized %d -> %d", before.Size(), after.Size())
	}
}

// TestRecoverBinaryWALTornTail: a crash mid-append tears the last
// record's length prefix, or its payload; recovery truncates to the last
// valid wave and the file replays clean.
func TestRecoverBinaryWALTornTail(t *testing.T) {
	// 60 ops make a record longer than 127 bytes: a two-byte length.
	frame := frameOf(mkWave(5, 60))
	if frame[0] < 0x80 {
		t.Fatal("test assumption: the length prefix takes two bytes")
	}
	for name, torn := range map[string][]byte{"length": frame[:1], "payload": frame[:len(frame)/2]} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tree.wal")
			writeWAL(t, path, 4)
			appendFile(t, path, torn)
			checkTornTail(t, path)
		})
	}
}

// checkTornTail checks the recovery of a 4-wave WAL with a torn fifth
// record.
func checkTornTail(t *testing.T, path string) {
	t.Helper()
	// The strict reader refuses the file — this is the "aborts startup"
	// behaviour recovery exists to replace.
	if _, err := readWAL(path); err == nil {
		t.Fatal("DecodeWAL accepted a torn tail")
	}

	ws, dropped, err := RecoverWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 || ws[3].Seq != 4 {
		t.Fatalf("recovered %d waves, want 4", len(ws))
	}
	if dropped == 0 {
		t.Fatal("torn tail reported 0 dropped bytes")
	}
	// Truncation is durable: the strict reader accepts the file now, and
	// a second recovery is a no-op.
	if ws, err = readWAL(path); err != nil || len(ws) != 4 {
		t.Fatalf("post-recovery DecodeWAL: %d waves, err %v", len(ws), err)
	}
	if _, dropped, err = RecoverWAL(path); err != nil || dropped != 0 {
		t.Fatalf("second recovery dropped %d, err %v", dropped, err)
	}
}

// TestRecoverBinaryWALTornHeader: a crash inside the first write of a
// fresh WAL tears its header, and the file recovers as an empty log. A
// whole header with a torn first record keeps the header.
func TestRecoverBinaryWALTornHeader(t *testing.T) {
	for _, tc := range []struct {
		data []byte
		keep int64
	}{
		{walMagic[:3], 0},
		{append(bytes.Clone(walMagic), frameOf(mkWave(1, 2))[:5]...), int64(len(walMagic))},
	} {
		path := filepath.Join(t.TempDir(), "tree.wal")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		ws, dropped, err := RecoverWAL(path)
		if err != nil || len(ws) != 0 || dropped != int64(len(tc.data))-tc.keep {
			t.Fatalf("recover %q: %d waves, %d dropped, err %v", tc.data, len(ws), dropped, err)
		}
		if st, _ := os.Stat(path); st.Size() != tc.keep {
			t.Fatalf("recover %q: %d bytes left, want %d", tc.data, st.Size(), tc.keep)
		}
		if ws, err := readWAL(path); err != nil || len(ws) != 0 {
			t.Fatalf("post-recovery DecodeWAL: %d waves, err %v", len(ws), err)
		}
	}
}

// TestRecoverBinaryWALCorruptChecksumTail: a whole record whose Sum does
// not match its content (bit rot, or a write interleaved across a crash)
// ends the valid prefix and is dropped with everything after it.
func TestRecoverBinaryWALCorruptChecksumTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.wal")
	writeWAL(t, path, 3)
	bad := mkWave(4, 2)
	bad.Sum++
	frame := frameOf(bad)
	appendFile(t, path, frame)
	if _, err := readWAL(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeWAL err = %v, want ErrCorrupt", err)
	}
	ws, dropped, err := RecoverWAL(path)
	if err != nil || len(ws) != 3 || dropped != int64(len(frame)) {
		t.Fatalf("recover: %d waves, %d dropped (want %d), err %v", len(ws), dropped, len(frame), err)
	}
	if ws, err = readWAL(path); err != nil || len(ws) != 3 {
		t.Fatalf("post-recovery DecodeWAL: %d waves, err %v", len(ws), err)
	}
}

// TestRecoverWALTornByInjector: end-to-end — a torn write injected at
// the wal.append seam leaves a partial record on disk (the mirror
// flushes what landed before disabling itself), and RecoverWAL brings
// the file back to the last durable wave.
func TestRecoverWALTornByInjector(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.wal")
	l, err := NewLog(64, path)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(42)
	in.Add(faults.Rule{Site: "wal.append", After: 3, Torn: 0.4, Times: 1})
	l.SetFaults(in)
	var appendErr error
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(mkWave(seq, 2)); err != nil {
			appendErr = err
		}
	}
	if !errors.Is(appendErr, faults.ErrInjected) {
		t.Fatalf("torn append surfaced %v", appendErr)
	}
	// The ring is still authoritative past the tear.
	if err := l.Append(mkWave(5, 1)); err != nil {
		t.Fatalf("ring append after tear: %v", err)
	}
	l.Close()

	ws, dropped, err := RecoverWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || dropped == 0 {
		t.Fatalf("recovered %d waves (%d dropped), want 3 with a torn tail", len(ws), dropped)
	}
}

// TestCutStartsANewFile: Cut renames the WAL aside and the next append
// continues the sequence in a fresh file at the same path, with the ring
// untouched. While the aside exists, a second Cut leaves both files as
// they are.
func TestCutStartsANewFile(t *testing.T) {
	dir := t.TempDir()
	path, aside := filepath.Join(dir, "t.wal"), filepath.Join(dir, "t.wal.prev")
	l, err := NewLog(64, path)
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(from, to uint64) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if err := l.Append(mkWave(seq, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	span := func(path string) (first, last uint64) {
		t.Helper()
		ws, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) == 0 {
			return 0, 0
		}
		return ws[0].Seq, ws[len(ws)-1].Seq
	}
	appendN(1, 5)
	if err := l.Cut(aside); err != nil {
		t.Fatal(err)
	}
	appendN(6, 8)
	if f, la := span(aside); f != 1 || la != 5 {
		t.Fatalf("aside after the cut: %d..%d, want 1..5", f, la)
	}
	if f, la := span(path); f != 6 || la != 8 {
		t.Fatalf("wal after the cut: %d..%d, want 6..8", f, la)
	}
	if ws, err := since(l, 0); err != nil || len(ws) != 8 || l.BaseSeq() != 1 {
		t.Fatalf("ring after the cut: %d waves from %d (err %v), want 8 from 1", len(ws), l.BaseSeq(), err)
	}

	// The aside is still there (its anchor was never written): no cut.
	if err := l.Cut(aside); err != nil {
		t.Fatal(err)
	}
	appendN(9, 9)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if f, la := span(aside); f != 1 || la != 5 {
		t.Fatalf("aside after a second cut: %d..%d, want 1..5", f, la)
	}
	if f, la := span(path); f != 6 || la != 9 {
		t.Fatalf("wal after a second cut: %d..%d, want 6..9", f, la)
	}
}

// TestAppendRejectsStaleEpoch: the log is part of the fence — once a
// wave of epoch E is accepted, waves of lower epochs are refused.
func TestAppendRejectsStaleEpoch(t *testing.T) {
	l, err := NewLog(8, "")
	if err != nil {
		t.Fatal(err)
	}
	w1 := Wave{Seq: 1, Epoch: 2, Root: 10}
	w1.Seal()
	if err := l.Append(w1); err != nil {
		t.Fatal(err)
	}
	if got := l.LastEpoch(); got != 2 {
		t.Fatalf("LastEpoch = %d, want 2", got)
	}
	stale := Wave{Seq: 2, Epoch: 1, Root: 20}
	stale.Seal()
	if err := l.Append(stale); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale epoch append err = %v, want ErrStaleEpoch", err)
	}
	// Unstamped waves (epoch 0) read as epoch 1: also stale here.
	legacy := Wave{Seq: 2, Root: 20}
	legacy.Seal()
	if err := l.Append(legacy); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("legacy epoch append err = %v, want ErrStaleEpoch", err)
	}
	// A higher epoch advances the fence.
	w2 := Wave{Seq: 2, Epoch: 3, Root: 20}
	w2.Seal()
	if err := l.Append(w2); err != nil {
		t.Fatal(err)
	}
	if got := l.LastEpoch(); got != 3 {
		t.Fatalf("LastEpoch = %d, want 3", got)
	}
}

// TestSnapshotEpochRoundTrip: snapshots carry the epoch, and the
// checksum covers it.
func TestSnapshotEpochRoundTrip(t *testing.T) {
	leaf := []SnapNode{{ID: 0, Parent: -1, Left: -1, Right: -1, Value: 3}}
	s := &Snapshot{Ring: RingSpec{Kind: "minplus"}, Seq: 9, Epoch: 4, Slots: 1, Nodes: leaf}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != 4 || dec.EpochOrDefault() != 4 {
		t.Fatalf("epoch = %d", dec.Epoch)
	}
	// Tampering with the epoch breaks the seal: the epoch-5 encoding
	// differs from this one in the epoch byte alone, and carrying that
	// byte over without its trailer must fail.
	s5 := *s
	s5.Epoch = 5
	data5, _ := s5.Encode()
	at := -1
	for i := range data[:len(data)-8] {
		if data[i] != data5[i] {
			if at >= 0 {
				t.Fatalf("epochs 4 and 5 differ in bytes %d and %d", at, i)
			}
			at = i
		}
	}
	if at < 0 {
		t.Fatal("epoch is not encoded")
	}
	tampered := bytes.Clone(data)
	tampered[at] = data5[at]
	if _, err := Decode(tampered); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("tampered epoch decode err = %v", err)
	}
}

// walRecoverSeeds are FuzzWALRecover's seed inputs: three binary waves
// (a grow among them), then the same file with its tail torn, its last
// record's checksum broken and its header cut; a log's Tail after the
// first wave, as a follower receives it; and three inputs that are not
// WALs: a JSONL file an older build wrote, one whose magic has a damaged
// byte, and the JSON log tail an older leader answered.
func walRecoverSeeds(tb testing.TB) [][]byte {
	var wal []byte
	wal = append(wal, walMagic...)
	wal = append(wal, frameOf(mkWave(1, 2))...)
	wal = append(wal, frameOf(growWave(2))...)
	wal = append(wal, frameOf(mkWave(3, 1))...)
	bad := bytes.Clone(wal)
	bad[len(bad)-1] ^= 1
	damaged := append([]byte("\x89DTX\x01"), bytes.Repeat([]byte{0x2a}, 100)...)
	l, err := NewLog(8, "")
	if err != nil {
		tb.Fatal(err)
	}
	logged := []Wave{mkWave(1, 2), mkWave(2, 1), growWave(3)}
	for _, w := range logged {
		if err := l.Append(w); err != nil {
			tb.Fatal(err)
		}
	}
	tail, _, err := l.Tail(1, math.MaxInt)
	if err != nil {
		tb.Fatal(err)
	}
	jsonTail, err := json.Marshal(map[string]any{"waves": logged[1:], "last_seq": 3, "applied_seq": 3})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{wal, wal[:len(wal)-4], bad, wal[:2], tail,
		readFixture(tb, "wal-legacy.jsonl"), damaged, jsonTail}
}

// notWAL reports whether data is a file scanWAL refuses whole: non-empty,
// neither opening with walMagic nor cut inside it.
func notWAL(data []byte) bool {
	return len(data) > 0 && !bytes.HasPrefix(data, walMagic) && !bytes.HasPrefix(walMagic, data)
}

// committedCorpus reads the inputs committed under testdata/fuzz/<name>:
// files of the form "go test fuzz v1" then one []byte("...") line.
func committedCorpus(t *testing.T, name string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", path)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, []byte(data))
	}
	return out
}

// FuzzWALRecover fuzzes scanWAL, the reader under both RecoverWAL and
// DecodeWAL (which also reads a follower's log tails), on arbitrary
// bytes, in memory: bytes that are not a WAL
// are ErrNotWAL with an empty prefix; the waves it returns verify and are
// contiguous, its valid prefix lies within the data and
// ends at the data's end exactly when it reports no error, and the prefix
// scans again to the same waves, whole and without error — which is what
// makes RecoverWAL's truncation land on a file it and DecodeWAL accept.
// RecoverWAL's own file round trip, which writes and fsyncs a file per
// input, is TestRecoverWALRoundTrip's, over the seeds and the committed
// corpus.
func FuzzWALRecover(f *testing.F) {
	for _, seed := range walRecoverSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		waves, good, err := scanWAL(data)
		if notWAL(data) != errors.Is(err, ErrNotWAL) || notWAL(data) && (good != 0 || waves != nil) {
			t.Fatalf("%d bytes, not a wal %v: %d waves, prefix %d, err %v", len(data), notWAL(data), len(waves), good, err)
		}
		for i := range waves {
			if !waves[i].Verify() {
				t.Fatalf("scanned wave %d (seq %d) does not verify", i, waves[i].Seq)
			}
			if i > 0 && waves[i].Seq != waves[i-1].Seq+1 {
				t.Fatalf("scanned waves not contiguous: seq %d then %d", waves[i-1].Seq, waves[i].Seq)
			}
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("valid prefix of %d bytes in %d", good, len(data))
		}
		if (err == nil) != (good == int64(len(data))) {
			t.Fatalf("valid prefix %d of %d bytes, err %v", good, len(data), err)
		}
		again, good2, err := scanWAL(data[:good])
		if err != nil || good2 != good || !reflect.DeepEqual(again, waves) {
			t.Fatalf("rescanning the %d-byte prefix: %d waves (want %d), %d bytes, err %v",
				good, len(again), len(waves), good2, err)
		}
	})
}

// TestRecoverWALRoundTrip runs RecoverWAL on a file per FuzzWALRecover
// seed and committed corpus input. A file that is not a WAL is refused
// with ErrNotWAL, by RecoverWAL and DecodeWAL, and left byte for byte as it
// was. On any other writable file RecoverWAL never errors; the waves it
// returns verify and are contiguous; the file shrinks by
// exactly the bytes it reports dropped; a second recovery returns the
// same waves and drops nothing; and DecodeWAL then accepts the file,
// reading the same waves.
func TestRecoverWALRoundTrip(t *testing.T) {
	inputs := append(walRecoverSeeds(t), committedCorpus(t, "FuzzWALRecover")...)
	for i, data := range inputs {
		path := filepath.Join(t.TempDir(), "tree.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		waves, dropped, err := RecoverWAL(path)
		if notWAL(data) {
			_, rerr := readWAL(path)
			after, _ := os.ReadFile(path)
			if !errors.Is(err, ErrNotWAL) || !errors.Is(rerr, ErrNotWAL) || waves != nil || dropped != 0 || !bytes.Equal(after, data) {
				t.Fatalf("input %d, not a wal: recover %d waves, %d dropped, err %v; read err %v; file %d -> %d bytes",
					i, len(waves), dropped, err, rerr, len(data), len(after))
			}
			continue
		}
		if err != nil {
			t.Fatalf("input %d: recover: %v", i, err)
		}
		for j := range waves {
			if !waves[j].Verify() {
				t.Fatalf("input %d: recovered wave %d (seq %d) does not verify", i, j, waves[j].Seq)
			}
			if j > 0 && waves[j].Seq != waves[j-1].Seq+1 {
				t.Fatalf("input %d: recovered waves not contiguous: seq %d then %d", i, waves[j-1].Seq, waves[j].Seq)
			}
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if shrunk := int64(len(data)) - st.Size(); shrunk != dropped {
			t.Fatalf("input %d: file shrank by %d bytes, recover reported %d dropped", i, shrunk, dropped)
		}
		again, dropped, err := RecoverWAL(path)
		if err != nil || dropped != 0 || !reflect.DeepEqual(again, waves) {
			t.Fatalf("input %d: second recover: %d waves (want %d), %d dropped, err %v", i, len(again), len(waves), dropped, err)
		}
		read, err := readWAL(path)
		if err != nil {
			t.Fatalf("input %d: DecodeWAL after recover: %v", i, err)
		}
		if !reflect.DeepEqual(read, waves) {
			t.Fatalf("input %d: DecodeWAL read %d waves, recover returned %d", i, len(read), len(waves))
		}
	}
}

// TestAppendCrashLeavesRingUnchanged: a crash inside the WAL write (the
// default crash hook panics there) must leave the ring as the file is,
// without the wave. The engine does not acknowledge that wave, so a ring
// that kept it could ship it to a follower or compact it into the file.
func TestAppendCrashLeavesRingUnchanged(t *testing.T) {
	l, err := NewLog(64, filepath.Join(t.TempDir(), "crash.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	in := faults.New(1)
	in.Add(faults.Rule{Site: "wal.append", After: 2, Crash: true, Times: 1})
	l.SetFaults(in)
	for seq := uint64(1); seq <= 2; seq++ {
		if err := l.Append(mkWave(seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		defer func() {
			if _, ok := recover().(faults.CrashError); !ok {
				t.Fatal("append 3 did not reach the crash point")
			}
		}()
		_ = l.Append(mkWave(3, 1))
	}()
	if got := l.LastSeq(); got != 2 {
		t.Fatalf("ring after a crashed append: last seq %d, want 2", got)
	}
}
