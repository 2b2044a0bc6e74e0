package replog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dyntc/internal/faults"
	"dyntc/internal/obs"
)

// Log errors.
var (
	// ErrTruncated reports a Tail position the log cannot continue from:
	// older than the ring retains, or past the last appended wave. The
	// caller must re-bootstrap from a snapshot.
	ErrTruncated = errors.New("replog: log truncated before requested sequence")
	// ErrGap reports an append whose sequence number is not the successor
	// of the last appended wave.
	ErrGap = errors.New("replog: non-contiguous wave sequence")
	// ErrCorrupt reports a wave whose checksum does not match its content.
	ErrCorrupt = errors.New("replog: wave checksum mismatch")
	// ErrStaleEpoch reports a wave carrying an epoch lower than one
	// already accepted — a late write from a demoted leader, rejected by
	// the fence.
	ErrStaleEpoch = errors.New("replog: wave epoch below current epoch")
	// ErrNotWAL reports a file that is not a wave file: it neither opens
	// with walMagic nor is cut inside it. A JSONL WAL an older build wrote
	// is one. RecoverWAL leaves such a file as it is.
	ErrNotWAL = errors.New("replog: not a binary wal")
)

// Log is the wave change-log: a bounded in-memory ring of the most recent
// waves, optionally mirrored to an append-only WAL file. Both hold each
// wave as its binary record (record.go). Appends come from the engine
// executor (via its wave tap); reads come from replication handlers — all
// methods are safe for concurrent use.
//
// The ring bounds memory: once it wraps, Tail calls older than the
// retained window return ErrTruncated and the follower must re-bootstrap
// from a snapshot. The file, when configured, retains every wave appended
// since the log opened or was last Cut; each record is handed to the OS
// as it is appended, and Sync fsyncs it.
type Log struct {
	mu sync.Mutex

	// ring holds the retained waves' records. An evicted slot's buffer
	// becomes rec, into which the next wave is encoded.
	ring  [][]byte
	start int // ring index of the oldest retained wave
	n     int // retained wave count
	rec   []byte

	base  uint64 // Seq of the oldest retained wave (0 = empty)
	last  uint64 // Seq of the newest appended wave (0 = none yet)
	epoch uint64 // highest epoch accepted so far (0 = none yet)

	f *os.File
	// frame stages each file write: walMagic when the file is still
	// empty (fresh), then rec's length and bytes. One write per wave goes
	// through a single seam — which is where fault injection tears it.
	frame []byte
	fresh bool

	// faults is the optional fault-injection schedule (SetFaults); sites
	// "wal.append" (per-record mirror write, supports torn writes) and
	// "wal.sync" (flush/fsync).
	faults *faults.Injector

	appendErr error // first file-append error, surfaced on later calls

	// o is the optional observability attachment (SetObs); swappable at
	// runtime so servers can instrument already-serving logs.
	o atomic.Pointer[logObs]
}

// logObs is a log's observability attachment: the replog instruments on
// the hub's registry, plus the hub itself for wal.append spans and
// compaction events. Compactions (Cut) are rare, operator-relevant
// transitions, so the log journals them itself rather than leaving every
// caller to.
type logObs struct {
	*Metrics
	hub *obs.Hub
}

// SetObs attaches (or, with nil, detaches) the observability hub: the
// log registers the replog families on the hub's registry, and its
// appends, cuts and traced waves report there.
func (l *Log) SetObs(h *obs.Hub) {
	if h == nil {
		l.o.Store(nil)
		return
	}
	l.o.Store(&logObs{NewMetrics(h.Registry()), h})
}

// SetFaults attaches (or, with nil, detaches) a fault-injection
// schedule to the WAL I/O path.
func (l *Log) SetFaults(in *faults.Injector) {
	l.mu.Lock()
	l.faults = in
	l.mu.Unlock()
}

// DefaultLogCapacity is the ring size used when NewLog gets capacity <= 0.
const DefaultLogCapacity = 4096

// walMagic opens every WAL file a Log writes and every Tail; each wave's
// record follows it in a frame (appendFrame). The last byte is the format
// version. Its first byte is not valid UTF-8, so no JSONL WAL and no JSON
// log tail an older build wrote starts with it: DecodeWAL and RecoverWAL
// refuse those bytes with ErrNotWAL.
var walMagic = []byte("\x89DTW\x01")

// appendFrame appends rec to dst as the WAL frames a record: its length
// as a uvarint, then its bytes.
func appendFrame(dst, rec []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(rec))), rec...)
}

// NewLog creates a wave log retaining up to capacity waves in memory
// (DefaultLogCapacity if <= 0). A non-empty path additionally opens an
// append-only WAL file that mirrors every append. A pre-existing
// non-empty file at path is kept aside (KeepAside) first:
// this Log's wave stream starts at its own base sequence, and appending
// it after an older process's stream would leave a non-contiguous,
// unreplayable file. The rotated file remains readable with DecodeWAL
// and replayable against the snapshot that anchors it. dyntcd's startup recovery
// replays a tree's WAL into its engine and deletes it once a fresh
// snapshot covers every wave, so this rotation keeps only a WAL whose
// replay stopped early.
func NewLog(capacity int, path string) (*Log, error) {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	l := &Log{ring: make([][]byte, capacity)}
	if path != "" {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			if _, err := KeepAside(path); err != nil {
				return nil, fmt.Errorf("replog: rotate stale wal: %w", err)
			}
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("replog: open wal: %w", err)
		}
		l.f, l.fresh = f, true
	}
	return l, nil
}

// Resume starts an empty log at seq, the sequence of the snapshot its
// tree starts from: LastSeq reports seq, the first append must carry
// seq+1, and Tail below seq answers ErrTruncated, since only that
// snapshot covers the waves before it. It is a no-op once the log holds
// a wave.
func (l *Log) Resume(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		l.last = seq
	}
}

// Append adds one sealed wave. The first append fixes the log's base
// sequence (a log attached to a restored tree starts mid-stream); every
// later append must carry the successor sequence number.
//
// The in-memory ring is authoritative: a failure of the file mirror is
// reported (once here, persistently via Err/Sync/Close) and disables
// further file writes, but the ring keeps advancing — a full disk
// degrades durability, it must not silently freeze replication while the
// leader keeps acknowledging writes.
func (l *Log) Append(w Wave) error {
	o := l.o.Load()
	if o != nil {
		t0 := time.Now()
		defer func() {
			o.Appends.Inc()
			o.AppendSeconds.Observe(int64(time.Since(t0)))
		}()
	}
	if !w.Verify() {
		return ErrCorrupt
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 && w.Seq != l.last+1 {
		return fmt.Errorf("%w: have %d, appending %d", ErrGap, l.last, w.Seq)
	}
	if ep := w.EpochOrDefault(); ep < l.epoch {
		return fmt.Errorf("%w: log at epoch %d, wave %d carries epoch %d",
			ErrStaleEpoch, l.epoch, w.Seq, ep)
	}
	// Observability: records sealed by a timed engine carry SealedAt;
	// stamp the append time next to it (ring and file mirror both see it,
	// so followers can attribute fetch lag), attribute the seal→append
	// stage, and emit a wal.append span for traced waves. Untimed records
	// (SealedAt == 0) skip all of this and stay byte-identical to
	// pre-tracing output.
	if w.SealedAt != 0 {
		w.AppendedAt = time.Now().UnixNano()
		if o != nil {
			lag := w.AppendedAt - w.SealedAt
			if lag < 0 {
				lag = 0
			}
			o.SealedAppended.Observe(lag)
			if w.TraceID != 0 {
				o.hub.Spans().Add(obs.Span{
					Trace:  obs.SpanID(w.TraceID),
					Span:   obs.NewSpanID(),
					Parent: obs.WaveSpanID(w.EpochOrDefault(), w.Seq),
					Name:   "wal.append",
					Seq:    w.Seq,
					Epoch:  w.EpochOrDefault(),
					Start:  w.SealedAt,
					Dur:    lag,
				})
			}
		}
	}
	// Mirror before the ring: a crash inside the file write (the
	// wal.append crash point) leaves the ring without the wave, as the
	// file is, so nothing can later ship an unacknowledged wave.
	l.rec = appendRecord(l.rec[:0], &w)
	err := l.mirror(w.Seq)
	if l.n == len(l.ring) {
		// Evict the oldest retained wave.
		l.start = (l.start + 1) % len(l.ring)
		l.base++
		l.n--
	}
	i := (l.start + l.n) % len(l.ring)
	l.ring[i], l.rec = l.rec, l.ring[i][:0]
	l.n++
	if l.base == 0 || l.n == 1 {
		l.base = w.Seq
	}
	l.last = w.Seq
	l.epoch = w.EpochOrDefault()
	return err
}

// mirror writes rec, wave seq's record, to the file mirror, if one is
// live. A failure is sticky: it disables further file writes (the ring
// stays live). Callers hold l.mu.
func (l *Log) mirror(seq uint64) error {
	if l.f == nil || l.appendErr != nil {
		return nil
	}
	l.frame = l.frame[:0]
	if l.fresh {
		l.frame = append(l.frame, walMagic...)
	}
	l.frame = appendFrame(l.frame, l.rec)
	// The one write hands the record to the OS now (no fsync): a killed
	// process loses at most the record the kernel was mid-write on — the
	// torn tail RecoverWAL truncates. Waves are already coalesced
	// batches, so this is one write syscall per wave, not per operation.
	var err error
	if fi := l.faults; fi != nil {
		_, err = fi.Write("wal.append", l.f, l.frame)
	} else {
		_, err = l.f.Write(l.frame)
	}
	if err != nil {
		// A failed or torn write leaves the file mid-record: exactly the
		// tail a crash would have left, which is what RecoverWAL is for.
		l.appendErr = fmt.Errorf("replog: wal append (mirror disabled at seq %d): %w", seq, err)
		return l.appendErr
	}
	l.fresh = false
	return nil
}

// Cut ends the WAL file at the last appended wave: it renames the file to
// aside and reopens an empty file at its path, where the next append
// continues the sequence. The ring is not touched. The caller cuts inside
// the engine barrier that snapshots the tree, so aside ends at the
// snapshot's sequence (the wave tap appends on the same executor), and
// deletes aside once that snapshot is its durable anchor. An aside that
// still exists holds waves no anchor covers yet, so Cut then leaves both
// files as they are. Every call counts a compaction and journals it.
func (l *Log) Cut(aside string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err, cut := l.appendErr, false
	if l.f != nil && err == nil {
		if _, serr := os.Lstat(aside); errors.Is(serr, os.ErrNotExist) {
			err = l.cut(aside)
			cut = err == nil
		}
	}
	if o := l.o.Load(); o != nil {
		o.Compactions.Inc()
		o.hub.Events().Emit(obs.EvWALCompact, "wal cut at a snapshot barrier",
			map[string]any{"through": l.last, "cut": cut})
	}
	return err
}

// cut renames the file to aside and reopens its path, empty. The mirror
// hands every record to the OS as it is appended, so the renamed file is
// complete. A failed reopen disables the mirror (sticky appendErr); the
// waves before it are in aside. Callers hold l.mu.
func (l *Log) cut(aside string) error {
	path := l.f.Name()
	if err := os.Rename(path, aside); err != nil {
		return fmt.Errorf("replog: cut wal: %w", err)
	}
	l.f.Close()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.appendErr = fmt.Errorf("replog: cut wal (mirror disabled): %w", err)
		l.f = nil
		return l.appendErr
	}
	l.f, l.fresh = f, true
	return nil
}

// KeepAside renames each of paths that exists to <path>.<unix-nanos>.old,
// one stamp for the call, and returns the new names: a file no anchor
// covers, or one this build cannot read, is kept for the operator instead
// of being overwritten or truncated. A missing path is skipped.
func KeepAside(paths ...string) ([]string, error) {
	stamp := time.Now().UnixNano()
	var kept []string
	for _, path := range paths {
		old := fmt.Sprintf("%s.%d.old", path, stamp)
		if err := os.Rename(path, old); errors.Is(err, os.ErrNotExist) {
			continue
		} else if err != nil {
			return kept, err
		}
		kept = append(kept, old)
	}
	return kept, nil
}

// SyncDir fsyncs a directory, making renames within it durable. Shared
// with the callers that persist a snapshot next to the WAL.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("replog: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replog: sync dir: %w", err)
	}
	return nil
}

// Err returns the sticky file-mirror error, if any: non-nil means the WAL
// file stopped at some sequence while the in-memory ring kept going.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendErr
}

// Tail copies the retained waves after seq out as the bytes of a WAL file
// holding them, at most max bytes but at least the first wave, and
// returns the newest appended sequence with them. It returns ErrTruncated
// when the ring no longer retains wave seq+1, or when seq is past last:
// the log lost waves the caller applied, as a restart does that recovers
// a WAL whose mirror had failed. Either way the caller must re-bootstrap
// from a snapshot.
func (l *Log) Tail(seq uint64, max int) (data []byte, last uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.last || seq < l.last && (l.n == 0 || seq+1 < l.base) {
		return nil, l.last, ErrTruncated
	}
	data = append(data, walMagic...)
	for s := seq + 1; s <= l.last; s++ {
		n := len(data)
		data = appendFrame(data, l.ring[(l.start+int(s-l.base))%len(l.ring)])
		if len(data) > max && s > seq+1 {
			return data[:n], l.last, nil
		}
	}
	return data, l.last, nil
}

// LastSeq returns the newest appended sequence number (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// LastEpoch returns the highest epoch accepted so far (0 if none).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// BaseSeq returns the oldest retained sequence number (0 if empty).
func (l *Log) BaseSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.base
}

// Len returns the number of retained waves.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Sync fsyncs the file mirror (no-op without a file).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.appendErr != nil {
		return l.appendErr
	}
	if l.f == nil {
		return nil
	}
	if fi := l.faults; fi != nil {
		if r := fi.Check("wal.sync"); r != nil && r.Err != nil {
			l.appendErr = fmt.Errorf("replog: wal sync (mirror disabled): %w", r.Err)
			return l.appendErr
		}
	}
	return l.f.Sync()
}

// Close fsyncs and closes the file mirror (the ring stays readable).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// DecodeWAL reads the bytes of a WAL file or of a Tail: every wave in
// order, checksum-verified and contiguity-checked. Bytes past the last
// whole wave are an error (returned with the waves before them), and
// bytes that are not a WAL are ErrNotWAL. RecoverWAL shares its reader,
// so one reader takes every wave that enters a process.
func DecodeWAL(data []byte) ([]Wave, error) {
	waves, _, err := scanWAL(data)
	return waves, err
}

// RecoverWAL reads a wave file like DecodeWAL, but treats a bad tail —
// a torn header, length or record, a record that fails to decode or its
// checksum, or one that breaks sequence contiguity — as the debris of a
// crash mid-append rather than a fatal error: the file is truncated in
// place to end exactly after the last valid wave, and the valid prefix is
// returned along with the number of bytes dropped. This is the
// startup-recovery contract: a process that died mid-write loses at most
// its unacknowledged tail and restarts from the last durable wave instead
// of refusing to boot. A file whose header is torn recovers empty.
//
// A file that is not a wave file at all returns ErrNotWAL and is left
// byte for byte as it is: it is no torn tail, and truncating it would
// destroy what this build cannot read. Otherwise only genuine I/O
// failures (read, truncate, fsync) return an error. dropped == 0 means
// the file was fully valid and untouched.
func RecoverWAL(path string) (waves []Wave, dropped int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("replog: open wal: %w", err)
	}
	waves, good, err := scanWAL(data)
	if errors.Is(err, ErrNotWAL) {
		return nil, 0, err
	}
	dropped = int64(len(data)) - good
	if dropped == 0 {
		return waves, 0, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return waves, dropped, fmt.Errorf("replog: open wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(good); err != nil {
		return waves, dropped, fmt.Errorf("replog: truncate torn wal tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return waves, dropped, fmt.Errorf("replog: sync recovered wal: %w", err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return waves, dropped, err
	}
	return waves, dropped, nil
}

// scanWAL reads a wave file's valid prefix: its waves and its length in
// bytes. err says why the prefix ends before the file does (nil when it
// does not). A file that neither opens with walMagic nor is cut inside it
// is ErrNotWAL, with an empty prefix.
func scanWAL(data []byte) (waves []Wave, good int64, err error) {
	switch {
	case len(data) == 0:
		return nil, 0, nil
	case !bytes.HasPrefix(data, walMagic) && !bytes.HasPrefix(walMagic, data):
		return nil, 0, ErrNotWAL
	case len(data) < len(walMagic):
		return nil, 0, fmt.Errorf("%w: torn wal header", errRecord)
	}
	good = int64(len(walMagic))
	for rest := data[good:]; len(rest) > 0; {
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return waves, good, fmt.Errorf("%w: torn record after seq %d", errRecord, lastSeqOf(waves))
		}
		w, err := decodeRecord(rest[n : n+int(size)])
		if err == nil {
			err = follows(waves, &w)
		}
		if err != nil {
			return waves, good, err
		}
		waves = append(waves, w)
		rest = rest[n+int(size):]
		good += int64(n) + int64(size)
	}
	return waves, good, nil
}

// follows checks that w continues waves' sequence.
func follows(waves []Wave, w *Wave) error {
	if n := len(waves); n > 0 && w.Seq != waves[n-1].Seq+1 {
		return fmt.Errorf("%w in wal: %d then %d", ErrGap, waves[n-1].Seq, w.Seq)
	}
	return nil
}

func lastSeqOf(ws []Wave) uint64 {
	if len(ws) == 0 {
		return 0
	}
	return ws[len(ws)-1].Seq
}
