package main

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dyntc"
	"dyntc/internal/obs"
	"dyntc/internal/replog"
)

// store is every served tree's durable state, leader or replica, below
// the HTTP handlers: its ring (op names parse against it), its wave log
// — the in-memory ring followers tail and, with a WAL directory,
// tree-<id>.wal — and, with a WAL directory, its compactor. An
// acknowledged or replica-applied wave survives a process kill; these
// are the rules:
//
//   - Files: tree id is tree-<id>.snap, the anchor, and tree-<id>.wal,
//     the waves after it; from a compaction's cut until its anchor is
//     durable, tree-<id>.wal.prev holds the waves before the cut. file
//     spells the layout.
//   - One birth: adopt is the only way a tree gets an entry — create,
//     PUT, a replica's bootstrap and re-bootstrap, recovery. A promoted
//     replica keeps its entry; only its anchor is rewritten.
//   - Anchor first: adopt persists the anchor before the tree's log takes
//     a wave, and compaction deletes tree-<id>.wal.prev only once the
//     anchor that covers it is durable, so no WAL holds waves without the
//     snapshot their replay starts from.
//   - A failed birth leaves nothing: adopt removes an anchor it created
//     when the log cannot be opened, so recovery cannot resurrect a tree
//     whose create or PUT answered an error.
//   - Recovery replays tree-<id>.wal.prev, then tree-<id>.wal, past the
//     anchor, then adopts the result under a fresh anchor and log. WAL
//     files the new anchor supersedes — all of them replayed, or the
//     replica re-bootstrapped — are deleted; any other non-empty one is
//     kept aside as tree-<id>.wal[.prev].<nanos>.old.
//   - Refused, never destroyed: a tree whose anchor does not restore, or
//     one of whose WAL files is not a binary WAL, is not served, and its
//     files are kept aside as tree-<id>.<suffix>.<nanos>.old, so neither
//     recovery nor a later tree under its id truncates or overwrites
//     what this build cannot read.
type store struct {
	forest *dyntc.Forest
	dir    string // "" = in-memory rings only
	logCap int    // ring capacity of every tree's log

	// compactEvery > 0 compacts each tree's WAL every that many waves,
	// with a directory only: cut the WAL at a snapshot barrier, then
	// persist that snapshot as the anchor. The ring is bounded by logCap
	// alone.
	compactEvery int

	obs    *dyntc.Obs
	faults *dyntc.FaultInjector // rides into every log ("wal.append"/"wal.sync")
	// snapshotDone feeds the server's snapshot instruments.
	snapshotDone func(bytes int, d time.Duration)

	trees sync.Map // dyntc.TreeID -> *entry
}

// entry is one served tree's durable state, leader or replica. An entry
// is not changed once published.
type entry struct {
	ring dyntc.Ring
	log  *dyntc.WaveLog
	// kick is non-nil when a compactor runs (compactEvery > 0 and a
	// directory); stop and done stop it and wait for it.
	kick, stop, done chan struct{}
	// anchorMu orders the rewrites of a served tree's anchor (compaction,
	// promotion), so it only moves forward, and close waits for them.
	anchorMu sync.Mutex
}

func newStore(forest *dyntc.Forest, dir string, logCap int, hub *dyntc.Obs) *store {
	if logCap <= 0 {
		logCap = replog.DefaultLogCapacity
	}
	return &store{forest: forest, dir: dir, logCap: logCap, obs: hub}
}

// file names tree id's file with the given suffix (".snap", ".wal",
// ".wal.prev"): the one place the tree-<id> layout is spelled. id "*"
// makes a glob pattern.
func (st *store) file(id any, suffix string) string {
	return filepath.Join(st.dir, fmt.Sprintf("tree-%v%s", id, suffix))
}

// remove deletes tree id's files with the given suffixes; a missing file
// is not an error.
func (st *store) remove(id dyntc.TreeID, suffixes ...string) {
	for _, suffix := range suffixes {
		if err := os.Remove(st.file(id, suffix)); err != nil && !errors.Is(err, os.ErrNotExist) {
			slog.Error("remove tree file failed", "tree", id, "file", st.file(id, suffix), "err", err)
		}
	}
}

// get returns tree id's entry, nil if it has none.
func (st *store) get(id dyntc.TreeID) *entry {
	v, _ := st.trees.Load(id)
	e, _ := v.(*entry)
	return e
}

// adopt makes en durable as tree id and publishes its entry: one barrier
// reads the tree's ring and its snapshot at the applied sequence, the
// snapshot is persisted as the anchor (genesis first, so no wave reaches
// the WAL before it), the tree's WAL files are deleted when supersede
// says the anchor covers every wave they hold (else a leftover
// tree-<id>.wal.prev is kept aside), the tree's log is opened, en is
// tapped into it and the compactor started. On failure nothing is
// published: adopt removes the anchor if it created it (a re-anchor
// stays, since it holds the tree's state).
func (st *store) adopt(id dyntc.TreeID, en *dyntc.Engine, supersede bool) error {
	ring, created, err := st.anchor(id, en)
	var wl *dyntc.WaveLog
	if err == nil {
		if supersede {
			// The anchor is durable and covers every wave the WAL held.
			st.remove(id, ".wal.prev", ".wal")
		} else if _, err := replog.KeepAside(st.file(id, ".wal.prev")); err != nil {
			slog.Error("keep aside unreplayed wal failed", "tree", id, "err", err)
		}
		// NewLog keeps any other non-empty WAL aside as .old.
		wl, err = st.openLog(id)
	}
	if err != nil {
		if created {
			_ = os.Remove(st.file(id, ".snap"))
		}
		return err
	}
	wl.Resume(en.AppliedSeq())
	e := &entry{ring: ring, log: wl}
	if st.compactEvery > 0 && st.dir != "" {
		e.kick = make(chan struct{}, 1) // coalesces kicks
		e.stop, e.done = make(chan struct{}), make(chan struct{})
		go st.compactLoop(id, en, e)
	}
	en.SetWaveTap(func(w dyntc.Wave) {
		if err := wl.Append(w); err != nil {
			slog.Error("wave log append failed", "tree", id, "seq", w.Seq, "err", err)
		}
		// Kick the compactor every compactEvery waves; the send is
		// non-blocking (the tap runs on the executor) and coalesces.
		if e.kick != nil && w.Seq%uint64(st.compactEvery) == 0 {
			select {
			case e.kick <- struct{}{}:
			default:
			}
		}
	})
	st.trees.Store(id, e)
	return nil
}

// anchor reads en's ring and, with a WAL directory, persists en's
// snapshot as tree-<id>.snap, both from one barrier; created reports
// whether the file is new.
func (st *store) anchor(id dyntc.TreeID, en *dyntc.Engine) (dyntc.Ring, bool, error) {
	var ring dyntc.Ring
	var data []byte
	var err error
	if qerr := en.Query(func(e *dyntc.Expr) {
		ring = e.Tree().Ring
		if st.dir != "" {
			data, err = e.Snapshot(en.AppliedSeq())
		}
	}); qerr != nil {
		return nil, false, qerr
	}
	if err != nil || st.dir == "" {
		return ring, false, err
	}
	path := st.file(id, ".snap")
	_, serr := os.Stat(path)
	created := errors.Is(serr, os.ErrNotExist)
	return ring, created, writeFileSync(path, data)
}

// openLog opens tree id's wave log: the in-memory ring and, with a
// directory, tree-<id>.wal.
func (st *store) openLog(id dyntc.TreeID) (*dyntc.WaveLog, error) {
	path := ""
	if st.dir != "" {
		path = st.file(id, ".wal")
	}
	wl, err := dyntc.NewWaveLog(st.logCap, path)
	if err != nil {
		return nil, err
	}
	wl.SetObs(st.obs)
	if st.faults != nil {
		wl.SetFaults(st.faults)
	}
	return wl, nil
}

// drop closes tree id's engine and retires its entry, removing its
// files so it does not resurrect. It reports whether id was served.
func (st *store) drop(id dyntc.TreeID) bool {
	ok := st.forest.Drop(id)
	if st.retire(id) && st.dir != "" {
		st.remove(id, ".snap", ".wal.prev", ".wal")
	}
	return ok
}

// retire unpublishes tree id's entry, if any: the engine is untapped, the
// compactor stopped and the log flushed and closed; the files stay. It
// reports whether there was an entry.
func (st *store) retire(id dyntc.TreeID) bool {
	v, loaded := st.trees.LoadAndDelete(id)
	if loaded {
		if en, ok := st.forest.Get(id); ok {
			en.SetWaveTap(nil)
		}
		v.(*entry).close(id)
	}
	return loaded
}

// serveReplica serves snapshot data as replica id, anchored on it. A
// served replica is replaced in place (Forest.Replace: reads never miss
// the id) unless data does not decode; replaced reports it. Any later
// failure drops the replica, keeping its files, for the next round.
func (st *store) serveReplica(id dyntc.TreeID, data []byte) (en *dyntc.Engine, seq uint64, replaced bool, err error) {
	if replaced = st.get(id) != nil; replaced {
		if _, _, err := dyntc.RestoreExpr(data); err != nil {
			return nil, 0, true, err
		}
		st.retire(id)
	}
	en, seq, err = st.forest.Replace(id, data)
	if err == nil {
		err = st.adopt(id, en, replaced)
	}
	if err != nil {
		st.forest.Drop(id)
		return nil, 0, replaced, err
	}
	return en, seq, replaced, nil
}

// reanchor persists en's state as tree id's anchor (promotion's new
// epoch) while e is published; in ring-only mode it has nothing to write.
func (st *store) reanchor(id dyntc.TreeID, en *dyntc.Engine, e *entry) error {
	e.anchorMu.Lock()
	defer e.anchorMu.Unlock()
	if st.get(id) != e {
		return fmt.Errorf("tree %d: entry retired", id)
	}
	if st.dir == "" {
		return nil
	}
	t0 := time.Now()
	data, err := en.Snapshot()
	if err != nil {
		return err
	}
	st.snapshotDone(len(data), time.Since(t0))
	return writeFileSync(st.file(id, ".snap"), data)
}

// close stops every compactor and flushes and closes every log (shutdown
// path; call after the forest has drained). Each entry is closed once: it
// leaves the store first.
func (st *store) close() {
	st.trees.Range(func(k, _ any) bool {
		if v, loaded := st.trees.LoadAndDelete(k); loaded {
			v.(*entry).close(k.(dyntc.TreeID))
		}
		return true
	})
}

// close stops e's compactor and flushes and closes its log.
func (e *entry) close(id dyntc.TreeID) {
	if e.kick != nil {
		close(e.stop)
		<-e.done
	}
	e.anchorMu.Lock() // the files are the caller's once close returns
	defer e.anchorMu.Unlock()
	if err := e.log.Close(); err != nil {
		slog.Error("wal close failed", "tree", id, "err", err)
	}
}

// compactLoop is one tree's background compaction: the wave tap kicks it
// every compactEvery waves, and it runs compact off the executor
// goroutine.
func (st *store) compactLoop(id dyntc.TreeID, en *dyntc.Engine, e *entry) {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case <-e.kick:
		}
		if err := st.compact(id, en, e); err != nil {
			slog.Error("compaction failed", "tree", id, "err", err)
		}
	}
}

// compact cuts tree id's WAL at a snapshot (cut), persists the snapshot
// as the anchor and then deletes tree-<id>.wal.prev. The anchor covers
// every wave in it, whether this cut made it or an earlier one whose
// anchor was not written; so the anchor is written after a failed cut
// too, and keeps advancing over a disabled mirror. A crash before the
// anchor is durable leaves tree-<id>.wal.prev for recovery to replay.
func (st *store) compact(id dyntc.TreeID, en *dyntc.Engine, e *entry) error {
	e.anchorMu.Lock()
	defer e.anchorMu.Unlock()
	data, err := st.cut(id, en, e.log)
	if data == nil {
		return err
	}
	if werr := writeFileSync(st.file(id, ".snap"), data); werr != nil {
		return errors.Join(err, werr)
	}
	st.remove(id, ".wal.prev")
	return err
}

// cut is compaction's barrier step: one engine barrier snapshots tree id
// at its applied sequence and cuts wl there (WaveLog.Cut), so
// tree-<id>.wal.prev ends at the snapshot's sequence and tree-<id>.wal
// continues after it. It returns the snapshot, nil if the barrier or the
// encode failed, and the error.
func (st *store) cut(id dyntc.TreeID, en *dyntc.Engine, wl *dyntc.WaveLog) ([]byte, error) {
	var data []byte
	var err error
	t0 := time.Now()
	if qerr := en.Query(func(x *dyntc.Expr) {
		if data, err = x.Snapshot(en.AppliedSeq()); err == nil {
			err = wl.Cut(st.file(id, ".wal.prev"))
		}
	}); qerr != nil {
		return nil, qerr
	}
	if data != nil {
		st.snapshotDone(len(data), time.Since(t0))
	}
	return data, err
}

// writeFileSync writes data to path atomically (temp + rename), fsyncing
// the file before the rename and the directory after it: an anchor must
// be durable before the WAL files it covers are deleted.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return replog.SyncDir(filepath.Dir(path))
}

// recover rebuilds every tree whose anchor survives in the WAL directory:
// restore tree-<id>.snap, replay the WAL past its sequence (truncating a
// torn tail instead of refusing to start), then adopt the recovered state
// under a fresh anchor and log, which form a consistent pair even if the
// replayed tail was torn. A tree it cannot read is refused. Call before
// serving traffic.
func (st *store) recover() error {
	if st.dir == "" {
		return nil
	}
	files, err := filepath.Glob(st.file("*", ""))
	if err != nil {
		return err
	}
	var snaps []dyntc.TreeID
	wals := make(map[dyntc.TreeID][]string)
	for _, path := range files {
		var id dyntc.TreeID
		var suffix string
		if n, _ := fmt.Sscanf(filepath.Base(path), "tree-%d%s", &id, &suffix); n != 2 {
			continue
		}
		switch suffix {
		case ".snap":
			snaps = append(snaps, id)
		case ".wal", ".wal.prev":
			wals[id] = append(wals[id], path)
		}
	}
	for _, id := range snaps {
		delete(wals, id)
		data, err := os.ReadFile(st.file(id, ".snap"))
		if err != nil {
			slog.Error("read snapshot failed, skipping tree", "tree", id, "err", err)
			continue
		}
		en, _, err := st.forest.Restore(id, data)
		if err != nil {
			if err := st.refuse(id, err); err != nil {
				return err
			}
			continue
		}
		snapEpoch := en.Epoch()
		replayed, err := st.replay(id, en)
		if err != nil {
			st.forest.Drop(id)
			if err := st.refuse(id, err); err != nil {
				return err
			}
			continue
		}
		if !replayed {
			slog.Warn("wal not fully replayed, kept aside", "tree", id, "kept", st.file(id, ".wal.*.old"))
		}
		epoch := en.Epoch()
		if epoch > snapEpoch {
			st.obs.Events().EmitTree(obs.EvEpochAdopt, id,
				"adopted a newer leadership epoch from the wal tail",
				map[string]any{"epoch": epoch, "from": snapEpoch})
		}
		if err := st.adopt(id, en, replayed); err != nil {
			return err
		}
		slog.Info("tree recovered", "tree", id, "seq", en.AppliedSeq(), "epoch", epoch)
	}
	// A WAL without its anchoring snapshot cannot be replayed (waves are
	// deltas); refuse to guess and leave the file for the operator.
	for id, paths := range wals {
		for _, path := range paths {
			slog.Warn("wal has no snapshot anchor, not recovered", "wal", path, "tree", id)
		}
	}
	return nil
}

// refuse keeps tree id's files aside, unserved, because recovery cannot
// read them (why). It fails only when a file cannot be kept aside: then
// recovery must not go on to serve, and let a new tree overwrite, its id.
func (st *store) refuse(id dyntc.TreeID, why error) error {
	kept, err := replog.KeepAside(st.file(id, ".snap"), st.file(id, ".wal.prev"), st.file(id, ".wal"))
	if err != nil {
		return fmt.Errorf("tree %d: keep aside unreadable files: %w (after %v)", id, err, why)
	}
	slog.Error("tree not recovered, files kept aside", "tree", id, "kept", kept, "err", why)
	st.obs.Events().EmitTree(obs.EvRecoverRefused, id, "recovery kept aside files it cannot read",
		map[string]any{"kept": kept, "err": why.Error()})
	return nil
}

// replay applies tree id's WAL files, tree-<id>.wal.prev and then
// tree-<id>.wal, past en's sequence through the verified apply path
// (waves the anchor covers are skipped). The engine is untapped here, so
// the replayed waves are not re-logged: the new anchor covers them. It
// reports whether the replay consumed both files, a truncated torn tail
// included, and fails, wrapping replog.ErrNotWAL, on a file that is not
// a binary WAL.
func (st *store) replay(id dyntc.TreeID, en *dyntc.Engine) (bool, error) {
	for _, path := range []string{st.file(id, ".wal.prev"), st.file(id, ".wal")} {
		if _, err := os.Stat(path); err != nil {
			continue
		}
		waves, dropped, err := dyntc.RecoverWaveLog(path)
		if errors.Is(err, replog.ErrNotWAL) {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if err != nil {
			slog.Error("wal recover failed, serving snapshot state", "tree", id, "wal", path, "err", err)
			return false, nil
		}
		if dropped > 0 {
			slog.Warn("wal recover truncated torn tail", "tree", id, "wal", path, "bytes", dropped)
		}
		replayed := true
		for _, wv := range waves {
			if err := en.ApplyWave(wv); err != nil {
				if errors.Is(err, dyntc.ErrWaveGap) {
					slog.Warn("wal gap, stopping replay", "tree", id, "wave", wv.Seq, "recovered_to", en.AppliedSeq())
				} else {
					slog.Error("wal replay failed, stopping replay", "tree", id, "wave", wv.Seq, "err", err)
				}
				replayed = false
				break
			}
		}
		if dropped > 0 {
			// Journaled after replay so recovered_to is the seq the tree
			// actually serves from, not the snapshot anchor.
			st.obs.Events().EmitTree(obs.EvWALTorn, id,
				"wal recover truncated a torn tail",
				map[string]any{"bytes": dropped, "recovered_to": en.AppliedSeq()})
		}
		if !replayed {
			return false, nil
		}
	}
	return true, nil
}
