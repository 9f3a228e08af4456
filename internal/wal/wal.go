// Package wal is the durability layer under cmd/slicekvsd: a per-shard
// append-only journal of acknowledged SETs plus periodic atomic snapshots,
// and a recovery path that rebuilds a shard's durable state from
// snapshot + journal after a crash.
//
// The design is deliberately the smallest thing that gives crash
// consistency with a bounded loss window:
//
//   - Every acked SET appends one fixed-size record {seqno, key, version}
//     protected by a per-record CRC32. Records buffer in memory and reach
//     disk in group commits (write + fsync), split across two goroutines:
//     the shard appends and Detaches the buffered tail as a Batch, and a
//     committer Commits it. At most one batch is in flight, so the
//     documented loss window is the buffered tail plus that one batch,
//     bounded by the caller's flush interval and record threshold.
//   - Snapshots are a full image of the durable state (per-key versions,
//     counters, last seqno) written via WriteFileAtomic: temp file, fsync,
//     rename, directory fsync. A crash at any byte leaves either the
//     old snapshot or the new one, never a torn hybrid. After a snapshot
//     lands, the journal is truncated; records at or below the snapshot
//     seqno are skipped on replay, so a crash between snapshot and
//     truncation is harmless.
//   - Recovery loads the snapshot, replays the journal in seqno order, and
//     repairs the journal file in place: a torn tail (partial final
//     record — the signature of a crash mid-write) is silently truncated,
//     while a corrupt record body (CRC mismatch, bad op, seqno going
//     backwards) quarantines everything from the bad record onward into a
//     side file and reports a typed *CorruptError — recovery degrades to
//     the durable prefix instead of refusing to start.
//
// Like the rest of the daemon layer, nil is free: a shard built without a
// journal pays one nil check on its SET path and nothing else.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Op identifies a journal record type.
type Op uint8

// OpSet is an acknowledged SET: key's version advanced to Ver.
const OpSet Op = 1

// Record is one journal entry. Seq is the shard-local write seqno,
// strictly increasing across the journal (and across snapshots — a
// truncation does not reset it). Key is the shard-local key rank and Ver
// the key's new version after the write.
type Record struct {
	Seq uint64
	Key uint64
	Ver uint64
	Op  Op
}

// Fixed on-disk record layout: op(1) pad(3) seq(8) key(8) ver(8) crc(4).
const (
	recordSize  = 32
	recordBody  = 28 // bytes covered by the trailing CRC
	journalMark = "SAWWAL01"
	headerSize  = len(journalMark)
)

// journalPath/snapshotPath name the per-shard files inside dir.
func journalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.wal", shard))
}

func quarantinePath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.wal.quarantine", shard))
}

func snapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.snap", shard))
}

// CorruptError reports journal content that failed validation beyond a
// simple torn tail. Recovery quarantines the bad suffix and continues
// with the durable prefix; the error is informational, not fatal.
type CorruptError struct {
	Shard  int
	Offset int64  // file offset of the first bad record
	Reason string // what failed: crc, op, or seqno ordering
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: shard %d journal corrupt at offset %d: %s (suffix quarantined)",
		e.Shard, e.Offset, e.Reason)
}

func encodeRecord(dst []byte, r Record) {
	_ = dst[recordSize-1]
	dst[0] = byte(r.Op)
	dst[1], dst[2], dst[3] = 0, 0, 0
	binary.LittleEndian.PutUint64(dst[4:], r.Seq)
	binary.LittleEndian.PutUint64(dst[12:], r.Key)
	binary.LittleEndian.PutUint64(dst[20:], r.Ver)
	binary.LittleEndian.PutUint32(dst[recordBody:], crc32.ChecksumIEEE(dst[:recordBody]))
}

// decodeRecord validates and decodes one record. It returns a non-empty
// reason string when the record fails CRC or structural checks.
func decodeRecord(src []byte) (Record, string) {
	if got, want := crc32.ChecksumIEEE(src[:recordBody]), binary.LittleEndian.Uint32(src[recordBody:]); got != want {
		return Record{}, fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", want, got)
	}
	r := Record{
		Op:  Op(src[0]),
		Seq: binary.LittleEndian.Uint64(src[4:]),
		Key: binary.LittleEndian.Uint64(src[12:]),
		Ver: binary.LittleEndian.Uint64(src[20:]),
	}
	if r.Op != OpSet {
		return Record{}, fmt.Sprintf("unknown op %d", r.Op)
	}
	return r, ""
}

// Journal is one shard's append-only write journal, shared by two
// goroutines. The shard owns the append side: Append, Detach, Reset,
// DropPending, Pending, LastSeq and Close run on it (or sequenced after
// it). A committer owns the disk side: Commit writes and fsyncs one
// detached Batch. The caller keeps at most one Batch in flight — the next
// Detach waits until the previous Commit returned — which is what lets the
// two buffers ping-pong without a lock. DurableSeq, Flushes and the
// poisoned state are safe to read from any goroutine.
type Journal struct {
	f       *os.File
	shard   int
	buf     []byte // encoded records not yet detached
	spare   []byte // the buffer of the last detached Batch, reused next
	pending int    // records in buf
	first   uint64 // seqno of buf's first record
	lastSeq uint64 // last appended seqno (durable or not)

	durable atomic.Uint64 // last fsynced seqno
	flushes atomic.Uint64
	broken  atomic.Bool // a failed write poisons the journal until reopen
}

// Batch is a detached group of records on its way to disk: the encoded
// bytes and the seqno range they cover.
type Batch struct {
	buf         []byte
	first, last uint64
}

// Len reports the records in the batch.
func (b Batch) Len() int { return len(b.buf) / recordSize }

// Last reports the batch's last seqno: the journal's durable seqno once
// it commits.
func (b Batch) Last() uint64 { return b.last }

// OpenJournal opens (creating if needed) a shard's journal for appending.
// lastSeq seeds the monotonicity check — pass the recovered state's last
// seqno so appends continue the sequence. The file must already be
// repaired (Recover truncates torn/corrupt tails); OpenJournal itself
// only validates the header.
func OpenJournal(dir string, shard int, lastSeq uint64) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	path := journalPath(dir, shard)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(journalMark); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync header: %w", err)
		}
	} else if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	j := &Journal{f: f, shard: shard, lastSeq: lastSeq}
	j.durable.Store(lastSeq)
	return j, nil
}

func (j *Journal) errPoisoned() error {
	return fmt.Errorf("wal: shard %d journal poisoned by earlier write failure", j.shard)
}

// Append buffers one record. The record is NOT durable until a Batch
// holding it commits — that gap is the loss window the daemon documents.
// Seqnos must be strictly increasing.
func (j *Journal) Append(r Record) error {
	if j.broken.Load() {
		return j.errPoisoned()
	}
	if r.Seq <= j.lastSeq {
		return fmt.Errorf("wal: shard %d seqno %d not after %d", j.shard, r.Seq, j.lastSeq)
	}
	n := len(j.buf)
	j.buf = append(j.buf, make([]byte, recordSize)...)
	encodeRecord(j.buf[n:], r)
	if j.pending == 0 {
		j.first = r.Seq
	}
	j.lastSeq = r.Seq
	j.pending++
	return nil
}

// Detach hands the buffered records over as a Batch and starts buffering
// into the spare buffer, which is the previous Batch's: that Batch must
// have been committed by now. Detach never touches the file; with nothing
// buffered it returns an empty Batch.
func (j *Journal) Detach() Batch {
	if j.pending == 0 {
		return Batch{}
	}
	b := Batch{buf: j.buf, first: j.first, last: j.lastSeq}
	j.buf, j.spare = j.spare[:0], j.buf
	j.pending = 0
	return b
}

// Commit is the disk half of a group commit: write the batch and fsync.
// On success the durable seqno advances to the batch's last seqno. A
// failed write or fsync poisons the journal, and so does a batch whose
// records are not all after the durable seqno: it was committed out of
// order, and acking past the hole it leaves would break recovery. An
// empty batch is a no-op.
func (j *Journal) Commit(b Batch) error {
	if j.broken.Load() {
		return j.errPoisoned()
	}
	if len(b.buf) == 0 {
		return nil
	}
	if d := j.durable.Load(); b.first <= d {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d batch %d..%d committed out of order (durable %d)", j.shard, b.first, b.last, d)
	}
	if _, err := j.f.Write(b.buf); err != nil {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d flush: %w", j.shard, err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d fsync: %w", j.shard, err)
	}
	j.durable.Store(b.last)
	j.flushes.Add(1)
	return nil
}

// Flush is the whole group commit on the calling goroutine: Detach
// followed by Commit.
func (j *Journal) Flush() error {
	return j.Commit(j.Detach())
}

// Reset truncates the journal back to its header after a snapshot made
// its contents redundant. Seqnos continue — truncation never resets them.
// Buffered records survive and land with the next Batch. No Batch may be
// in flight: its write would race the truncation.
func (j *Journal) Reset() error {
	if j.broken.Load() {
		return j.errPoisoned()
	}
	if err := j.f.Truncate(int64(headerSize)); err != nil {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d truncate: %w", j.shard, err)
	}
	if _, err := j.f.Seek(int64(headerSize), 0); err != nil {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d seek: %w", j.shard, err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken.Store(true)
		return fmt.Errorf("wal: shard %d sync: %w", j.shard, err)
	}
	return nil
}

// DropPending discards the buffered records without writing them. Only
// correct after a snapshot that already covers every append — the tail is
// then redundant, and rewriting it would just be replay-skipped later.
func (j *Journal) DropPending() {
	j.buf = j.buf[:0]
	j.pending = 0
	j.durable.Store(j.lastSeq)
}

// Pending reports the records buffered and not yet detached.
func (j *Journal) Pending() int { return j.pending }

// Close flushes any buffered records and closes the file. No Batch may be
// in flight.
func (j *Journal) Close() error {
	ferr := j.Flush()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
