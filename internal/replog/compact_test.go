package replog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCompactConcurrentAppends races the off-lock WAL rewrite against a
// live append stream (the production shape: the engine executor appends
// while the compactor rewrites). The resulting file must stay contiguous
// and checksum-clean, holding exactly the waves after the trim.
func TestCompactConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	l, err := NewLog(1<<12, path)
	if err != nil {
		t.Fatal(err)
	}
	const total, trimAt = 500, 100
	compacted := make(chan error, 1)
	for s := uint64(1); s <= total; s++ {
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
		if s == trimAt {
			go func() { compacted <- l.Compact(trimAt / 2) }()
		}
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadWAL(path) // verifies contiguity and checksums
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != total-trimAt/2 || ws[0].Seq != trimAt/2+1 || ws[len(ws)-1].Seq != total {
		t.Fatalf("wal after racing compact: %d waves, first %d, last %d",
			len(ws), ws[0].Seq, ws[len(ws)-1].Seq)
	}
	if got := l.BaseSeq(); got != trimAt/2+1 {
		t.Fatalf("base: %d", got)
	}
}

func sealedWave(seq uint64) Wave {
	w := Wave{
		Seq:  seq,
		Ops:  []Op{{Kind: OpSetLeaf, Node: 0, Value: int64(seq)}},
		Root: int64(seq),
	}
	w.Seal()
	return w
}

func TestCompactTrimsRing(t *testing.T) {
	l, err := NewLog(64, "")
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= 20; s++ {
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(12); err != nil {
		t.Fatal(err)
	}
	if got := l.BaseSeq(); got != 13 {
		t.Fatalf("base after compact: %d", got)
	}
	if got := l.Len(); got != 8 {
		t.Fatalf("len after compact: %d", got)
	}
	// Positions at or before the trim are gone: the 410 contract.
	if _, err := l.Since(5); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(5): %v, want ErrTruncated", err)
	}
	if _, err := l.Since(11); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(11): %v, want ErrTruncated", err)
	}
	// The retained tail still serves.
	ws, err := l.Since(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 || ws[0].Seq != 13 || ws[7].Seq != 20 {
		t.Fatalf("tail: %d waves, first %d", len(ws), ws[0].Seq)
	}
	// Appends continue seamlessly.
	if err := l.Append(sealedWave(21)); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 21 {
		t.Fatalf("last after append: %d", got)
	}
}

func TestCompactToLastEmptiesRing(t *testing.T) {
	l, err := NewLog(16, "")
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= 5; s++ {
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Compacting past the end clamps to the last appended wave.
	if err := l.Compact(99); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("len: %d", l.Len())
	}
	if _, err := l.Since(0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(0): %v", err)
	}
	if ws, err := l.Since(5); err != nil || len(ws) != 0 {
		t.Fatalf("Since(5): %v %v", ws, err)
	}
	if err := l.Append(sealedWave(6)); err != nil {
		t.Fatal(err)
	}
	if l.BaseSeq() != 6 || l.Len() != 1 {
		t.Fatalf("after refill: base %d len %d", l.BaseSeq(), l.Len())
	}
}

func TestCompactRewritesWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	l, err := NewLog(64, path)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= 10; s++ {
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(7); err != nil {
		t.Fatal(err)
	}
	// The WAL now holds exactly the retained tail...
	ws, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[0].Seq != 8 || ws[2].Seq != 10 {
		t.Fatalf("compacted wal: %d waves, first %d", len(ws), ws[0].Seq)
	}
	// ...and later appends land in the compacted segment.
	for s := uint64(11); s <= 12; s++ {
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 5 || ws[4].Seq != 12 {
		t.Fatalf("wal after appends: %d waves, last %d", len(ws), ws[len(ws)-1].Seq)
	}
	// No stray temp file.
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestCompactKeepsWavesOnlyTheFileHolds: when the ring has already
// evicted waves after the trim point, the file is their only copy, so
// Compact must leave it whole rather than rewrite it from the ring.
func TestCompactKeepsWavesOnlyTheFileHolds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.wal")
	l, err := NewLog(4, path)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= 8; s++ { // the ring keeps 5..8
		if err := l.Append(sealedWave(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(2); err == nil {
		t.Fatal("compact behind the ring's base: want an error saying the wal was kept whole")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ws, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 || ws[0].Seq != 1 {
		t.Fatalf("wal after compact: %d waves from %d, want 8 from 1", len(ws), ws[0].Seq)
	}
	if l.BaseSeq() != 5 || l.Len() != 4 {
		t.Fatalf("ring after compact: base %d len %d, want 5/4", l.BaseSeq(), l.Len())
	}
}

// TestCompactOnMidStreamLog: a log attached to a restored tree starts its
// file mid-stream, so waves before its first were never the log's to
// keep. A trim point behind that start is not an eviction; one behind a
// wave the file held after a rewrite still is.
func TestCompactOnMidStreamLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	l, err := NewLog(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendRange := func(from, to uint64) {
		for s := from; s <= to; s++ {
			if err := l.Append(sealedWave(s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	walSeqs := func() (uint64, uint64, int) {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		ws, err := ReadWAL(path)
		if err != nil || len(ws) == 0 {
			t.Fatalf("read wal: %d waves, %v", len(ws), err)
		}
		return ws[0].Seq, ws[len(ws)-1].Seq, len(ws)
	}
	appendRange(101, 104)
	if err := l.Compact(50); err != nil {
		t.Fatalf("compact behind the log's first wave: %v", err)
	}
	if first, last, n := walSeqs(); first != 101 || last != 104 || n != 4 {
		t.Fatalf("wal after compact(50): %d..%d (%d waves), want 101..104", first, last, n)
	}
	if err := l.Compact(102); err != nil {
		t.Fatal(err)
	}
	if first, last, n := walSeqs(); first != 103 || last != 104 || n != 2 {
		t.Fatalf("wal after compact(102): %d..%d (%d waves), want 103..104", first, last, n)
	}
	appendRange(105, 110) // the ring keeps 107..110; the file holds 103..110
	if err := l.Compact(104); err == nil {
		t.Fatal("compact behind waves only the file holds: want an error saying the wal was kept whole")
	}
	if first, last, n := walSeqs(); first != 103 || last != 110 || n != 8 {
		t.Fatalf("wal after compact(104): %d..%d (%d waves), want 103..110", first, last, n)
	}
}
