package replog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dyntc/internal/prng"
	"dyntc/internal/semiring"
	"dyntc/internal/tree"
)

// readFixture returns a committed file from testdata.
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reseal gives edited snapshot bytes a valid trailer again, so a test or
// the fuzzer reaches the parser behind it. Bytes without the magic come
// back unchanged.
func reseal(data []byte) []byte {
	if !bytes.HasPrefix(data, snapMagic) || len(data) < len(snapMagic)+8 {
		return data
	}
	body := bytes.Clone(data[:len(data)-8])
	return binary.LittleEndian.AppendUint64(body, fnv1a(body))
}

// TestSnapshotSlotLimit: a snapshot declaring 2^32 or more ID slots is
// refused at decode, before anything allocates per slot, with a valid
// checksum. 2^36 slots once made Tree ask for 512 GB and killed the
// process.
func TestSnapshotSlotLimit(t *testing.T) {
	leaf := []SnapNode{{ID: 0, Parent: -1, Left: -1, Right: -1, Value: 1}}
	for _, slots := range []int{1 << 32, 1 << 36} {
		if _, err := Decode(binarySnapshot(uint64(slots))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%d slots: err = %v, want ErrSnapshotCorrupt", slots, err)
		}
		s := &Snapshot{Ring: RingSpec{Kind: "mod", Mod: 97}, Slots: slots, Nodes: leaf}
		if _, err := s.Encode(); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("encode with %d slots: err = %v", slots, err)
		}
		if _, err := s.Tree(); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("tree with %d slots: err = %v", slots, err)
		}
	}
	// A node count the remaining bytes cannot hold fails before the nodes
	// are allocated.
	for _, count := range []uint64{2, 1 << 40} {
		if _, err := Decode(binarySnapshotN(1<<20, count)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%d nodes declared, 1 present: err = %v, want ErrSnapshotCorrupt", count, err)
		}
	}
	// The largest legal count decodes; only Tree would pay for it.
	s, err := Decode(binarySnapshot(1<<32 - 1))
	if err != nil || s.Slots != 1<<32-1 {
		t.Fatalf("2^32-1 slots: %v", err)
	}
}

// binarySnapshot writes the documented version-3 layout by hand: a
// one-leaf mod-97 tree declaring the given slot count.
func binarySnapshot(slots uint64) []byte { return binarySnapshotN(slots, 1) }

// binarySnapshotN is binarySnapshot with a declared node count, which
// need not match the one node it holds.
func binarySnapshotN(slots, count uint64) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "mod"...)
	b = binary.AppendVarint(b, 97)
	b = binary.AppendUvarint(b, 0) // seed
	b = append(b, 0)               // tour
	b = binary.AppendUvarint(b, 0) // seq
	b = binary.AppendUvarint(b, 1) // epoch
	b = binary.AppendUvarint(b, slots)
	b = binary.AppendUvarint(b, count)
	b = append(b, 0, 0, 0, 0)     // ID 0, no parent, no children
	b = binary.AppendVarint(b, 1) // value
	return reseal(append(b, make([]byte, 8)...))
}

// TestSnapshotLayout pins the documented byte layout against Encode, so
// the comment on SnapshotVersion stays the format's specification.
func TestSnapshotLayout(t *testing.T) {
	s := &Snapshot{Ring: RingSpec{Kind: "mod", Mod: 97}, Epoch: 1, Slots: 1,
		Nodes: []SnapNode{{ID: 0, Parent: -1, Left: -1, Right: -1, Value: 1}}}
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := binarySnapshot(1); !bytes.Equal(data, want) {
		t.Fatalf("Encode wrote\n%x\nthe layout says\n%x", data, want)
	}
}

// fuzzSeeds are the inputs FuzzSnapshotDecode starts from besides its
// committed corpus: the JSON fixtures, which it must refuse, two encoded
// trees (one with deleted slots and a tour), and halves of each.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, name := range []string{"snapshot-v1.json", "snapshot-v2.json"} {
		js := readFixture(t, name)
		seeds = append(seeds, js, js[:len(js)/2])
	}
	for i, shape := range []tree.Shape{tree.ShapeRandom, tree.ShapeBalanced} {
		tr := tree.Generate(semiring.NewMod(97), prng.New(uint64(i+1)), 20, shape)
		if i == 0 {
			for _, n := range tr.Nodes {
				if n != nil && !n.IsLeaf() && n.Left.IsLeaf() && n.Right.IsLeaf() {
					tr.DeleteChildren(n, 5)
					break
				}
			}
		}
		s, err := Capture(tr, uint64(i), i == 0, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		v3, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, v3, v3[:len(v3)/2])
	}
	return seeds
}

// FuzzSnapshotDecode: Decode never panics; it refuses a JSON snapshot as
// ErrVersion; whatever it accepts re-encodes and decodes back to the same
// header and nodes; and on trees of up to 2^20 slots, Tree either fails
// or returns a valid tree. Each input is also tried with its checksum
// repaired, or mutations would rarely get past the checksum to the
// parser.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		checkDecoded(t, reseal(data))
	})
}

func checkDecoded(t *testing.T, data []byte) {
	s, err := Decode(data)
	if rest := bytes.TrimLeft(data, " \t\r\n"); len(rest) > 0 && rest[0] == '{' && !errors.Is(err, ErrVersion) {
		t.Fatalf("JSON snapshot: err = %v, want ErrVersion", err)
	}
	if err != nil {
		return
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatalf("accepted snapshot does not encode: %v", err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	h1, h2 := *s, *back
	h1.Nodes, h2.Nodes = nil, nil
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("header %+v re-decodes as %+v", h1, h2)
	}
	if !slices.Equal(s.Nodes, back.Nodes) {
		t.Fatal("nodes differ after re-encoding")
	}
	if s.Slots > 1<<20 {
		return
	}
	tr, err := s.Tree()
	if err != nil {
		return
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Tree returned an invalid tree: %v", err)
	}
	if tr.Len() != len(s.Nodes) || len(tr.Nodes) != s.Slots {
		t.Fatalf("tree has %d nodes in %d slots, snapshot %d in %d", tr.Len(), len(tr.Nodes), len(s.Nodes), s.Slots)
	}
}
