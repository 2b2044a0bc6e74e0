package dyntc

// Durability & replication tests: the snapshot codec, the wave change-log,
// and replica catch-up, pinned to the strongest available oracles —
// byte-identical snapshots and the sequential replay of the same programs.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"testing"

	"dyntc/internal/prng"
	"dyntc/internal/replog"
)

// logSince decodes every wave l retains after seq as a follower reads
// them: l's Tail through the WAL decoder.
func logSince(l *WaveLog, seq uint64) ([]Wave, error) {
	data, _, err := l.Tail(seq, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return replog.DecodeWAL(data)
}

// replicaProgram is a deterministic mixed-op workload over its own region
// of the tree (the subtree under base): grow / collapse / set-leaf /
// set-op / value, every choice drawn from the seeded rng. It runs against
// either an Engine (live) or a bare Expr (sequential oracle).
type replicaProgram struct {
	rng   *prng.Source
	ring  Ring
	base  *Node
	stack []replicaFrame
	roots []int64 // value-query answers in program order
}

type replicaFrame struct{ parent, left, right *Node }

func newReplicaProgram(seed uint64, ring Ring, base *Node) *replicaProgram {
	return &replicaProgram{rng: prng.New(seed), ring: ring, base: base}
}

// step issues one operation through the callbacks (blocking, so exactly
// one request of this program is in flight at a time and the program's
// operation order is deterministic).
func (p *replicaProgram) step(
	grow func(*Node, Op, int64, int64) (*Node, *Node),
	collapse func(*Node, int64),
	set func(*Node, int64),
	setOp func(*Node, Op),
	value func(*Node) int64,
) {
	top := func() *Node {
		if len(p.stack) == 0 {
			return p.base
		}
		return p.stack[len(p.stack)-1].right
	}
	r := p.rng.Intn(100)
	switch {
	case r < 35 && len(p.stack) < 24:
		op := OpAdd(p.ring)
		if p.rng.Intn(2) == 0 {
			op = OpMul(p.ring)
		}
		target := top()
		l, rt := grow(target, op, int64(p.rng.Intn(1000)), int64(p.rng.Intn(1000)))
		p.stack = append(p.stack, replicaFrame{parent: target, left: l, right: rt})
	case r < 50 && len(p.stack) > 0:
		f := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		collapse(f.parent, int64(p.rng.Intn(1000)))
	case r < 70:
		k := len(p.stack)
		target := p.base
		if k > 0 {
			if i := p.rng.Intn(k + 1); i < k {
				target = p.stack[i].left
			} else {
				target = p.stack[k-1].right
			}
		}
		set(target, int64(p.rng.Intn(1000)))
	case r < 80 && len(p.stack) > 0:
		f := p.stack[p.rng.Intn(len(p.stack))]
		op := OpAdd(p.ring)
		if p.rng.Intn(2) == 0 {
			op = OpMul(p.ring)
		}
		setOp(f.parent, op)
	default:
		k := len(p.stack)
		n := p.base
		if k > 0 {
			f := p.stack[p.rng.Intn(k)]
			switch p.rng.Intn(3) {
			case 0:
				n = f.parent
			case 1:
				n = f.left
			default:
				n = f.right
			}
		}
		p.roots = append(p.roots, value(n))
	}
}

func (p *replicaProgram) runLive(t *testing.T, en *Engine, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		p.step(
			func(n *Node, op Op, lv, rv int64) (*Node, *Node) {
				l, r, err := en.Grow(n, op, lv, rv)
				if err != nil {
					t.Errorf("live grow: %v", err)
				}
				return l, r
			},
			func(n *Node, v int64) {
				if err := en.Collapse(n, v); err != nil {
					t.Errorf("live collapse: %v", err)
				}
			},
			func(n *Node, v int64) {
				if err := en.SetLeaf(n, v); err != nil {
					t.Errorf("live set-leaf: %v", err)
				}
			},
			func(n *Node, op Op) {
				if err := en.SetOp(n, op); err != nil {
					t.Errorf("live set-op: %v", err)
				}
			},
			func(n *Node) int64 {
				v, err := en.Value(n)
				if err != nil {
					t.Errorf("live value: %v", err)
				}
				return v
			},
		)
	}
}

func (p *replicaProgram) runSeq(e *Expr, steps int) {
	for i := 0; i < steps; i++ {
		p.step(
			func(n *Node, op Op, lv, rv int64) (*Node, *Node) { return e.Grow(n, op, lv, rv) },
			func(n *Node, v int64) { e.Collapse(n, v) },
			func(n *Node, v int64) { e.SetLeaf(n, v) },
			func(n *Node, op Op) { e.SetOp(n, op) },
			func(n *Node) int64 { return e.Value(n) },
		)
	}
}

// replayExpr is the sequential replay oracle: snap restored with
// RestoreExpr, then every wave past the snapshot's sequence applied in
// order with Expr.ApplyWave. It returns the replica and the sequence it
// reached.
func replayExpr(t *testing.T, snap []byte, waves []Wave) (*Expr, uint64) {
	t.Helper()
	e, seq, err := RestoreExpr(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		if w.Seq <= seq {
			continue
		}
		if w.Seq != seq+1 {
			t.Fatalf("replay: at %d, got wave %d", seq, w.Seq)
		}
		if err := e.ApplyWave(w); err != nil {
			t.Fatalf("replay wave %d: %v", w.Seq, err)
		}
		seq = w.Seq
	}
	return e, seq
}

// replicaFanOut grows the single leaf into n disjoint region roots.
func replicaFanOut(e *Expr, ring Ring, n int) []*Node {
	leaves := []*Node{e.Tree().Root}
	for len(leaves) < n {
		l, r := e.Grow(leaves[0], OpAdd(ring), 1, 1)
		leaves = append(leaves[1:], l, r)
	}
	return leaves
}

// TestSnapshotReplayByteIdentical is the acceptance pin: for several PRNG
// seeds, a single deterministic program runs (a) through an engine with a
// wave log and (b) directly on a bare Expr (the sequential replay oracle).
// The leader's final snapshot, a replica built from the initial snapshot
// plus the full log, and the oracle's snapshot must be byte-identical.
func TestSnapshotReplayByteIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		ring := ModRing(1_000_000_007)

		// Leader: engine-served, logged.
		log, err := NewWaveLog(1<<16, "")
		if err != nil {
			t.Fatal(err)
		}
		leader := NewExpr(ring, 1, WithSeed(seed))
		en := leader.Serve(BatchOptions{WaveTap: func(w Wave) {
			if err := log.Append(w); err != nil {
				t.Errorf("log append: %v", err)
			}
		}})
		snap0, err := en.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		prog := newReplicaProgram(seed*1000, ring, leader.Tree().Root)
		prog.runLive(t, en, 400)
		finalSnap, err := en.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		finalSeq := en.AppliedSeq()
		en.Close()
		if got := log.LastSeq(); got != finalSeq {
			t.Fatalf("seed %d: log at %d, engine applied %d", seed, got, finalSeq)
		}

		// Replica: initial snapshot + full log.
		waves, err := logSince(log, 0)
		if err != nil {
			t.Fatal(err)
		}
		fo, seq := replayExpr(t, snap0, waves)
		foSnap, err := fo.Snapshot(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(foSnap, finalSnap) {
			t.Fatalf("seed %d: replica snapshot differs from leader's", seed)
		}

		// Sequential replay oracle: the same program applied directly to a
		// bare Expr must land on the same bytes (and the same query answers).
		oracle := NewExpr(ring, 1, WithSeed(seed))
		oprog := newReplicaProgram(seed*1000, ring, oracle.Tree().Root)
		oprog.runSeq(oracle, 400)
		oSnap, err := oracle.Snapshot(finalSeq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oSnap, finalSnap) {
			t.Fatalf("seed %d: sequential oracle snapshot differs from leader's", seed)
		}
		if len(oprog.roots) != len(prog.roots) {
			t.Fatalf("seed %d: %d live value queries vs %d oracle", seed, len(prog.roots), len(oprog.roots))
		}
		for i := range oprog.roots {
			if oprog.roots[i] != prog.roots[i] {
				t.Fatalf("seed %d: value query %d: live %d oracle %d", seed, i, prog.roots[i], oprog.roots[i])
			}
		}
	}
}

// TestFollowerMeteringDeterministic pins replay determinism of the PRAM
// metering: two replicas of the same snapshot + log must report
// identical metered costs and identical snapshots.
func TestFollowerMeteringDeterministic(t *testing.T) {
	ring := ModRing(1_000_000_007)
	log, _ := NewWaveLog(1<<16, "")
	leader := NewExpr(ring, 1, WithSeed(11))
	en := leader.Serve(BatchOptions{WaveTap: func(w Wave) { _ = log.Append(w) }})
	snap0, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prog := newReplicaProgram(4242, ring, leader.Tree().Root)
	prog.runLive(t, en, 300)
	en.Close()

	waves, err := logSince(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	fa, seq := replayExpr(t, snap0, waves)
	fb, _ := replayExpr(t, snap0, waves)
	if ma, mb := fa.PRAM(), fb.PRAM(); ma != mb {
		t.Fatalf("metering diverged: first replica %+v, second %+v", ma, mb)
	}
	s1, err := fa.Snapshot(seq)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := fb.Snapshot(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("second replica's snapshot differs from the first's")
	}
}

// TestRaceSnapshotMidTraffic is the race-detector replication test: many
// client goroutines hammer one logged engine while snapshots are taken
// mid-traffic; every mid-traffic snapshot, restored into a replica engine
// and fed the tail of the log, must converge to the leader's exact final
// state, and the final root must match the sequential replay of the same
// client programs.
func TestRaceSnapshotMidTraffic(t *testing.T) {
	const (
		clients = 6
		steps   = 150
		seed    = 77
	)
	ring := ModRing(1_000_000_007)
	log, err := NewWaveLog(1<<17, "")
	if err != nil {
		t.Fatal(err)
	}

	leader := NewExpr(ring, 1, WithSeed(seed))
	bases := replicaFanOut(leader, ring, clients)
	en := leader.Serve(BatchOptions{WaveTap: func(w Wave) {
		if err := log.Append(w); err != nil {
			t.Errorf("log append: %v", err)
		}
	}})

	progs := make([]*replicaProgram, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		progs[i] = newReplicaProgram(uint64(9000+i), ring, bases[i])
		wg.Add(1)
		go func(p *replicaProgram) {
			defer wg.Done()
			p.runLive(t, en, steps)
		}(progs[i])
	}

	// Snapshots taken while traffic is in full flight.
	var snapMu sync.Mutex
	var midSnaps [][]byte
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 5; i++ {
			data, err := en.Snapshot()
			if err != nil {
				t.Errorf("mid-traffic snapshot: %v", err)
				return
			}
			snapMu.Lock()
			midSnaps = append(midSnaps, data)
			snapMu.Unlock()
		}
	}()

	wg.Wait()
	snapWG.Wait()
	finalSnap, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	en.Close()
	leaderRoot := leader.Root()
	if st := en.Stats(); st.Errors != 0 {
		t.Fatalf("live run produced %d validation errors", st.Errors)
	}

	// Every mid-traffic snapshot + log tail converges to the leader.
	replicas := NewForest(BatchOptions{})
	defer replicas.Close()
	for i, snap := range midSnaps {
		fo, seq, err := replicas.Restore(TreeID(i+1), snap)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		waves, err := logSince(log, seq)
		if err != nil {
			t.Fatalf("snapshot %d (seq %d): %v", i, seq, err)
		}
		for _, w := range waves {
			if err := fo.ApplyWave(w); err != nil {
				t.Fatalf("snapshot %d: catch-up: %v", i, err)
			}
		}
		if root, err := fo.Root(); err != nil || root != leaderRoot {
			t.Fatalf("snapshot %d: replica root %d (%v), leader %d", i, root, err, leaderRoot)
		}
		foSnap, err := fo.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(foSnap, finalSnap) {
			t.Fatalf("snapshot %d: replica final state differs from leader's", i)
		}
	}

	// Sequential replay oracle: same client programs, one after another, on
	// a bare Expr. Regions are disjoint, so the final root must agree with
	// any concurrent interleaving, and per-region value answers replay too.
	oracle := NewExpr(ring, 1, WithSeed(seed))
	obases := replicaFanOut(oracle, ring, clients)
	for i := 0; i < clients; i++ {
		p := newReplicaProgram(uint64(9000+i), ring, obases[i])
		p.runSeq(oracle, steps)
		if len(p.roots) != len(progs[i].roots) {
			t.Fatalf("client %d: %d live queries vs %d oracle", i, len(progs[i].roots), len(p.roots))
		}
		for j := range p.roots {
			if p.roots[j] != progs[i].roots[j] {
				t.Fatalf("client %d query %d: live %d oracle %d", i, j, progs[i].roots[j], p.roots[j])
			}
		}
	}
	if oracle.Root() != leaderRoot {
		t.Fatalf("root: leader %d, sequential oracle %d", leaderRoot, oracle.Root())
	}
}

// TestFollowerGapAndDivergence covers a served replica engine's failure
// modes under Engine.ApplyWave: out-of-order waves report ErrWaveGap,
// stale re-delivery is idempotent, and a wave whose recorded root
// disagrees with the replayed state reports divergence (after which the
// replica must re-bootstrap). TestPromoteFailover covers the stale-epoch
// fence.
func TestFollowerGapAndDivergence(t *testing.T) {
	ring := ModRing(97)
	log, _ := NewWaveLog(1024, "")
	leader := NewExpr(ring, 1, WithSeed(5))
	en := leader.Serve(BatchOptions{WaveTap: func(w Wave) { _ = log.Append(w) }})
	snap0, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	prog := newReplicaProgram(555, ring, leader.Tree().Root)
	prog.runLive(t, en, 60)
	en.Close()

	waves, err := logSince(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) < 3 {
		t.Fatalf("only %d waves", len(waves))
	}
	forest := NewForest(BatchOptions{})
	defer forest.Close()
	replica, _, err := forest.Restore(1, snap0)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyWave(waves[1]); !errors.Is(err, ErrWaveGap) {
		t.Fatalf("gap err = %v, want ErrWaveGap", err)
	}
	if err := replica.ApplyWave(waves[0]); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyWave(waves[0]); err != nil { // idempotent re-delivery
		t.Fatalf("re-delivery err = %v", err)
	}
	bad := waves[1]
	bad.Root++
	bad.Seal()
	if err := replica.ApplyWave(bad); !errors.Is(err, ErrDiverged) {
		t.Fatalf("diverged err = %v, want ErrDiverged", err)
	}
	// Reads ride the op type but are never logged: a wave carrying one
	// fails replay before it touches the tree.
	read := waves[1]
	read.Ops = append([]WaveOp{{Kind: replog.OpValue}}, read.Ops...)
	read.Seal()
	if err := replica.ApplyWave(read); !errors.Is(err, ErrDiverged) {
		t.Fatalf("wave with a read op: err = %v, want ErrDiverged", err)
	}
	if got := replica.AppliedSeq(); got != waves[0].Seq {
		t.Fatalf("replica engine at seq %d, want %d", got, waves[0].Seq)
	}
}

// TestForestReplaceUnderReads: re-bootstrapping a served tree swaps it
// inside its engine's barrier, so readers racing the swaps always find
// the tree and read either the old state or the new one. A wave-tapped
// engine refuses the swap.
func TestForestReplaceUnderReads(t *testing.T) {
	ring := ModRing(97)
	a := NewExpr(ring, 3, WithSeed(1))
	snapA, err := a.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	b := NewExpr(ring, 5, WithSeed(1))
	b.Grow(b.Tree().Root, OpAdd(ring), 4, 6)
	snapB, err := b.Snapshot(7)
	if err != nil {
		t.Fatal(err)
	}
	forest := NewForest(BatchOptions{})
	defer forest.Close()
	if _, _, err := forest.Replace(1, snapA); err != nil { // a free id restores
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				en, ok := forest.Get(1)
				if !ok {
					errs <- errors.New("tree 1 missing mid-swap")
					return
				}
				if v, err := en.Root(); err != nil || (v != 3 && v != 10) {
					errs <- fmt.Errorf("root %d, err %v: neither state", v, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		snap, want := snapA, uint64(0)
		if i%2 == 0 {
			snap, want = snapB, 7
		}
		en, seq, err := forest.Replace(1, snap)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want || en.AppliedSeq() != want {
			t.Fatalf("replace %d: seq %d, engine at %d, want %d", i, seq, en.AppliedSeq(), want)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	en, _ := forest.Get(1)
	en.SetWaveTap(func(Wave) {})
	if _, _, err := forest.Replace(1, snapB); !errors.Is(err, ErrLoggedBarrier) {
		t.Fatalf("replace on a tapped engine: err %v, want ErrLoggedBarrier", err)
	}
}

// TestRestoreNormalizes restores a mod-7 snapshot whose leaf reads −12
// and whose root multiplies with coefficients outside [0, 7): the
// restored tree holds them reduced, as a live mutation would, so the
// restored root lies in the ring and equals the tree's own evaluation.
// A live grow with those coefficients reduces them the same way, so the
// expression and its restored copy agree on the root and re-snapshot to
// the same bytes.
func TestRestoreNormalizes(t *testing.T) {
	snap := &replog.Snapshot{
		Ring:  replog.RingSpec{Kind: "mod", Mod: 7},
		Seed:  1,
		Slots: 3,
		Nodes: []replog.SnapNode{
			{ID: 0, Parent: -1, Left: 1, Right: 2, A: 8, B: -7, C: 14}, // x·y
			{ID: 1, Parent: 0, Left: -1, Right: -1, Value: -12},
			{ID: 2, Parent: 0, Left: -1, Right: -1, Value: 3},
		},
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := RestoreExpr(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := snap.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Root(), tr.Eval(); got != want || got < 0 || got >= 7 {
		t.Fatalf("restored root %d, tree evaluates to %d, want equal and in [0, 7)", got, want)
	}
	if got := e.Root(); got != 6 { // (−12 mod 7) · 3 = 2 · 3
		t.Fatalf("restored root %d, want 6", got)
	}

	live := NewExpr(ModRing(7), 1)
	live.Grow(live.Tree().Root, Op{A: 8, B: -7, C: 14}, -12, 3)
	snapLive, err := live.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := RestoreExpr(snapLive)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Root() != 6 || back.Root() != 6 || !bytes.Equal(again, snapLive) {
		t.Fatalf("live root %d, restored %d, want 6; re-snapshot identical: %v", live.Root(), back.Root(), bytes.Equal(again, snapLive))
	}
}

// FuzzRestoreExpr drives RestoreExpr, the body of PUT
// /v1/trees/{id}/snapshot, which decodes, rebuilds the tree and
// contracts it: it never panics, refuses what Decode refuses (the JSON
// fixtures among its seeds, as every JSON body), and an accepted body
// restores to its tree's value and re-snapshots to a body that restores
// to the same root. Each binary input is also tried with its trailing
// checksum recomputed, or mutations would rarely get past the checksum to
// the contraction.
func FuzzRestoreExpr(f *testing.F) {
	ring := ModRing(1_000_000_007)
	e := NewExpr(ring, 1, WithSeed(5))
	// Grow and collapse one leaf, so the body carries a dead ID slot.
	l, _ := e.Grow(replicaFanOut(e, ring, 24)[3], OpMul(ring), 2, 3)
	e.Collapse(l.Parent, 9)
	cur, err := e.Snapshot(7)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cur)
	f.Add(cur[:len(cur)/2])
	f.Add([]byte{})
	for _, name := range []string{"snapshot-v1.json", "snapshot-v2.json"} {
		js, err := os.ReadFile("internal/replog/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, data)
		if bytes.HasPrefix(data, []byte("\x89DTS")) && len(data) > 8 {
			body := bytes.Clone(data[:len(data)-8])
			h := fnv.New64a()
			h.Write(body)
			checkRestore(t, binary.LittleEndian.AppendUint64(body, h.Sum64()))
		}
	})
}

func checkRestore(t *testing.T, data []byte) {
	snap, err := replog.Decode(data)
	if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) && !errors.Is(err, replog.ErrVersion) {
		t.Fatalf("JSON body: Decode err = %v, want ErrVersion", err)
	}
	if err != nil {
		if _, _, err := RestoreExpr(data); err == nil {
			t.Fatal("RestoreExpr accepted a body Decode refuses")
		}
		return
	}
	if snap.Slots > 1<<16 {
		return // tree.Restore reserves 8 B per declared slot
	}
	tr, treeErr := snap.Tree()
	e, seq, err := RestoreExpr(data)
	if (err == nil) != (treeErr == nil) {
		t.Fatalf("RestoreExpr error %v, Tree error %v", err, treeErr)
	}
	if err != nil {
		return
	}
	if seq != snap.Seq {
		t.Fatalf("restored seq %d, snapshot %d", seq, snap.Seq)
	}
	if got, want := e.Root(), tr.Eval(); got != want {
		t.Fatalf("restored root %d, tree evaluates to %d", got, want)
	}
	again, err := e.Snapshot(0)
	if err != nil {
		t.Fatalf("restored expression does not snapshot: %v", err)
	}
	back, _, err := RestoreExpr(again)
	if err != nil {
		t.Fatalf("re-snapshot does not restore: %v", err)
	}
	if back.Root() != e.Root() {
		t.Fatalf("re-snapshot restores to root %d, want %d", back.Root(), e.Root())
	}
}
