package replog_test

// Compatibility of the JSON snapshots written before the binary layout:
// the committed fixtures must restore and upgrade.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dyntc"
	"dyntc/internal/replog"
	"dyntc/internal/tree"
)

// TestLegacySnapshotsRestore: the version-1 and version-2 fixtures decode,
// restore through RestoreExpr to the root they were recorded with, and
// re-encode in the binary layout to a snapshot whose tree equals theirs.
// The v2 fixture has deleted slots and epoch 4; the v1 one a tour and no
// epoch.
func TestLegacySnapshotsRestore(t *testing.T) {
	for _, fx := range []struct {
		name         string
		version      int
		root         int64
		seq, epoch   uint64
		slots, nodes int
		tour         bool
	}{
		{"snapshot-v1.json", 1, 3288492, 3, 1, 47, 47, true},
		{"snapshot-v2.json", 2, 317295638, 12, 4, 81, 69, false},
	} {
		t.Run(fx.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fx.name))
			if err != nil {
				t.Fatal(err)
			}
			s, err := replog.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if s.Version != fx.version || s.Seq != fx.seq || s.EpochOrDefault() != fx.epoch ||
				s.Slots != fx.slots || len(s.Nodes) != fx.nodes || s.Tour != fx.tour {
				t.Fatalf("header: version %d seq %d epoch %d slots %d nodes %d tour %v",
					s.Version, s.Seq, s.EpochOrDefault(), s.Slots, len(s.Nodes), s.Tour)
			}
			e, seq, err := dyntc.RestoreExpr(data)
			if err != nil {
				t.Fatal(err)
			}
			if e.Root() != fx.root || seq != fx.seq || e.Epoch() != fx.epoch || e.HasTour() != fx.tour {
				t.Fatalf("restored root %d seq %d epoch %d tour %v", e.Root(), seq, e.Epoch(), e.HasTour())
			}

			v3, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			up, err := replog.Decode(v3)
			if err != nil {
				t.Fatal(err)
			}
			if up.Version != replog.SnapshotVersion {
				t.Fatalf("re-encoded as version %d", up.Version)
			}
			want, err := s.Tree()
			if err != nil {
				t.Fatal(err)
			}
			got, err := up.Tree()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameTree(got, want); err != nil {
				t.Fatal(err)
			}
			// The Expr's own snapshot is the same upgrade, with a v1
			// snapshot's missing epoch made explicit.
			own, err := e.Snapshot(seq)
			if err != nil {
				t.Fatal(err)
			}
			s.Epoch = s.EpochOrDefault()
			if want, _ := s.Encode(); string(own) != string(want) {
				t.Fatal("Expr.Snapshot differs from the re-encoded fixture")
			}
		})
	}
}

// sameTree compares two trees slot by slot: IDs, links, operations and
// values.
func sameTree(a, b *tree.Tree) error {
	if len(a.Nodes) != len(b.Nodes) || a.Len() != b.Len() {
		return fmt.Errorf("%d nodes in %d slots, want %d in %d", a.Len(), len(a.Nodes), b.Len(), len(b.Nodes))
	}
	id := func(n *tree.Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if (x == nil) != (y == nil) {
			return fmt.Errorf("slot %d: live %v, want %v", i, x != nil, y != nil)
		}
		if x == nil {
			continue
		}
		if id(x.Parent) != id(y.Parent) || id(x.Left) != id(y.Left) || id(x.Right) != id(y.Right) ||
			x.Op != y.Op || x.Value != y.Value {
			return fmt.Errorf("node %d differs", i)
		}
	}
	return nil
}
