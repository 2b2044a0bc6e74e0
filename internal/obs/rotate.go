package obs

import (
	"bufio"
	"errors"
	"fmt"
	"os"
)

// rotatingFile is a buffered append-only file with optional size-based
// rotation, shared by the span-log and event-journal JSONL sinks. When the
// current file would exceed maxBytes, it is renamed to path.1 (shifting
// path.1 → path.2 … up to keep rotated files, dropping the oldest) and a
// fresh file is opened at path. maxBytes <= 0 disables rotation and the
// file grows without bound, matching the pre-rotation behaviour.
//
// Callers serialize access (the span log and journal both write under
// their own mutex), so rotatingFile itself is not locked.
type rotatingFile struct {
	path     string
	maxBytes int64
	keep     int

	f    *os.File
	bw   *bufio.Writer
	size int64
}

// openRotatingFile opens (appending) the sink at path. keep < 1 is
// clamped to 1: rotation always retains at least the previous file.
func openRotatingFile(path string, maxBytes int64, keep int) (*rotatingFile, error) {
	if keep < 1 {
		keep = 1
	}
	r := &rotatingFile{path: path, maxBytes: maxBytes, keep: keep}
	if err := r.open(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rotatingFile) open() error {
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.bw = bufio.NewWriterSize(f, 1<<16)
	r.size = st.Size()
	return nil
}

// rotate shifts the rotated-file chain and reopens a fresh current file.
// A failed close or rename aborts the rotation, but path is reopened for
// append either way: losing rotation is better than losing the sink.
func (r *rotatingFile) rotate() error {
	if err := r.bw.Flush(); err != nil {
		return err
	}
	err := r.f.Close()
	if err == nil {
		os.Remove(fmt.Sprintf("%s.%d", r.path, r.keep))
		for i := r.keep - 1; i >= 1; i-- {
			os.Rename(fmt.Sprintf("%s.%d", r.path, i), fmt.Sprintf("%s.%d", r.path, i+1))
		}
		if err = os.Rename(r.path, r.path+".1"); os.IsNotExist(err) {
			err = nil
		}
	}
	return errors.Join(err, r.open())
}

// Write appends b, rotating first when the write would push the current
// file past maxBytes. A record larger than maxBytes still lands whole in
// its own fresh file — records are never split across rotations — and a
// failed rotation still lands it, in the current file.
func (r *rotatingFile) Write(b []byte) (int, error) {
	var rerr error
	if r.maxBytes > 0 && r.size > 0 && r.size+int64(len(b)) > r.maxBytes {
		rerr = r.rotate()
	}
	n, err := r.bw.Write(b)
	r.size += int64(n)
	if err == nil {
		err = rerr
	}
	return n, err
}

// Flush pushes buffered bytes down to the OS.
func (r *rotatingFile) Flush() error { return r.bw.Flush() }

// Close flushes and closes the current file.
func (r *rotatingFile) Close() error {
	err := r.bw.Flush()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
