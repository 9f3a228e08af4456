package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot is a full image of one shard's durable state: every key's
// version, the lifetime counters the drain checkpoint reports, and the
// seqno the image is current through. Journal records with Seq >
// LastSeq are the delta to replay on top.
type Snapshot struct {
	Shard    int
	LastSeq  uint64
	Gets     uint64
	Sets     uint64
	Served   uint64
	Versions []uint64
}

const snapshotMark = "SAWSNP01"

// ErrNoSnapshot reports that no snapshot exists for the shard — a fresh
// deployment, not a failure.
var ErrNoSnapshot = errors.New("wal: no snapshot")

// ErrSnapshotCorrupt reports a snapshot that failed its integrity check.
// Because snapshots are written atomically this means post-rename damage;
// recovery falls back to journal-only replay.
var ErrSnapshotCorrupt = errors.New("wal: snapshot corrupt")

// WriteSnapshot atomically replaces the shard's snapshot (WriteFileAtomic):
// a crash at any point leaves either the previous snapshot or this one,
// never a torn file.
func WriteSnapshot(dir string, s *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	buf := make([]byte, 0, len(snapshotMark)+44+len(s.Versions)*8+4)
	buf = append(buf, snapshotMark...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Shard))
	buf = binary.LittleEndian.AppendUint64(buf, s.LastSeq)
	buf = binary.LittleEndian.AppendUint64(buf, s.Gets)
	buf = binary.LittleEndian.AppendUint64(buf, s.Sets)
	buf = binary.LittleEndian.AppendUint64(buf, s.Served)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Versions)))
	for _, v := range s.Versions {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return WriteFileAtomic(snapshotPath(dir, s.Shard), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// WriteFileAtomic replaces path with what write produces: write goes to a
// temp file in path's directory, which is fsynced, closed, renamed over
// path, and the directory fsynced so the rename itself is durable. A crash
// at any point leaves either the old file or the new one; on any error the
// temp file is removed and path is untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("wal: atomic write temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: atomic write %s: %s: %w", filepath.Base(path), step, err)
	}
	if err := write(tmp); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail("rename", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// ReadSnapshot loads and verifies the shard's snapshot. It returns
// ErrNoSnapshot when none exists and ErrSnapshotCorrupt (wrapped) when
// the file fails validation.
func ReadSnapshot(dir string, shard int) (*Snapshot, error) {
	buf, err := os.ReadFile(snapshotPath(dir, shard))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	headLen := len(snapshotMark) + 44
	if len(buf) < headLen+4 {
		return nil, fmt.Errorf("%w: shard %d: short file (%d bytes)", ErrSnapshotCorrupt, shard, len(buf))
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: shard %d: crc mismatch", ErrSnapshotCorrupt, shard)
	}
	if string(body[:len(snapshotMark)]) != snapshotMark {
		return nil, fmt.Errorf("%w: shard %d: bad magic", ErrSnapshotCorrupt, shard)
	}
	p := body[len(snapshotMark):]
	s := &Snapshot{
		Shard:   int(binary.LittleEndian.Uint32(p)),
		LastSeq: binary.LittleEndian.Uint64(p[4:]),
		Gets:    binary.LittleEndian.Uint64(p[12:]),
		Sets:    binary.LittleEndian.Uint64(p[20:]),
		Served:  binary.LittleEndian.Uint64(p[28:]),
	}
	n := binary.LittleEndian.Uint64(p[36:])
	if s.Shard != shard {
		return nil, fmt.Errorf("%w: shard %d: snapshot names shard %d", ErrSnapshotCorrupt, shard, s.Shard)
	}
	if uint64(len(p[44:])) != n*8 {
		return nil, fmt.Errorf("%w: shard %d: version table length mismatch", ErrSnapshotCorrupt, shard)
	}
	s.Versions = make([]uint64, n)
	for i := range s.Versions {
		s.Versions[i] = binary.LittleEndian.Uint64(p[44+i*8:])
	}
	return s, nil
}

// readAll is a small helper for replay: io.ReadFull tolerant of EOF.
func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size())
	_, err = io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf, nil
}
