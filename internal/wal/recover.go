package wal

import (
	"errors"
	"fmt"
	"os"
)

// State is the durable shard state recovery rebuilds: the per-key version
// table, the last seqno the journal+snapshot cover, and the lifetime
// counters the snapshot carried. Gets is snapshot-resolution only (reads
// are not journaled); Sets is exact through the durable prefix.
type State struct {
	Versions []uint64
	LastSeq  uint64
	Gets     uint64
	Sets     uint64
}

// Report describes what one recovery did — the daemon logs it and the
// crash harness asserts on it.
type Report struct {
	SnapshotLoaded  bool
	SnapshotSeq     uint64
	SnapshotCorrupt bool // snapshot failed validation; journal-only replay
	Replayed        int  // journal records applied on top of the snapshot
	SkippedOld      int  // records at or below the snapshot seqno
	TornBytes       int  // partial trailing record truncated silently
	Quarantined     int  // bytes moved to the quarantine file
	Corrupt         *CorruptError
}

// Recover rebuilds a shard's durable state from its snapshot and journal
// and repairs the journal file in place so a subsequent OpenJournal
// appends at a clean record boundary.
//
// Damage handling, in order of severity:
//   - no files at all → fresh zeroed state (first boot);
//   - corrupt snapshot → journal-only replay, SnapshotCorrupt reported;
//   - torn journal tail (partial final record) → truncated, TornBytes
//     reported — this is the normal signature of a crash mid-write;
//   - corrupt journal record (CRC, op, or seqno ordering) → that record
//     and everything after it is appended to the shard's quarantine file,
//     the journal is truncated to the durable prefix, and Report.Corrupt
//     carries a typed *CorruptError. Recovery still succeeds.
//
// apply, when non-nil, is invoked for every replayed record after it has
// been folded into the returned State — the daemon uses it to re-warm the
// simulated store with the replayed writes.
func Recover(dir string, shard int, keys uint64, apply func(Record)) (*State, Report, error) {
	st := &State{Versions: make([]uint64, keys)}
	var rep Report

	snap, err := ReadSnapshot(dir, shard)
	switch {
	case err == nil:
		if uint64(len(snap.Versions)) != keys {
			return nil, rep, fmt.Errorf("wal: shard %d snapshot covers %d keys, store holds %d",
				shard, len(snap.Versions), keys)
		}
		copy(st.Versions, snap.Versions)
		st.LastSeq = snap.LastSeq
		st.Gets, st.Sets = snap.Gets, snap.Sets
		rep.SnapshotLoaded = true
		rep.SnapshotSeq = snap.LastSeq
	case errors.Is(err, ErrNoSnapshot):
	case errors.Is(err, ErrSnapshotCorrupt):
		rep.SnapshotCorrupt = true
	default:
		return nil, rep, err
	}

	path := journalPath(dir, shard)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return st, rep, nil // no journal yet: snapshot (or zero) state stands
	}
	if err != nil {
		return nil, rep, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	buf, err := readAll(f)
	if err != nil {
		return nil, rep, fmt.Errorf("wal: shard %d journal read: %w", shard, err)
	}
	if len(buf) < headerSize || string(buf[:headerSize]) != journalMark {
		// A header that never finished writing (or alien bytes): nothing in
		// this file is trustworthy, but nothing in it was ever acked as
		// durable either — quarantine it all and start clean.
		if len(buf) > 0 {
			rep.Quarantined += len(buf)
			rep.Corrupt = &CorruptError{Shard: shard, Offset: 0, Reason: "bad journal header"}
			if err := quarantineBytes(dir, shard, buf); err != nil {
				return nil, rep, err
			}
		}
		if err := truncateJournal(f, 0, true); err != nil {
			return nil, rep, err
		}
		return st, rep, nil
	}

	recs := buf[headerSize:]
	off := 0
	for ; off+recordSize <= len(recs); off += recordSize {
		r, reason := decodeRecord(recs[off : off+recordSize])
		if reason == "" && r.Seq <= st.LastSeq && rep.Replayed == 0 {
			// Pre-snapshot leftovers: a crash landed between snapshot and
			// journal truncation. Skip, but keep checking integrity.
			rep.SkippedOld++
			continue
		}
		if reason == "" && r.Seq != st.LastSeq+1 && !(rep.Replayed == 0 && rep.SkippedOld == 0 && !rep.SnapshotLoaded) {
			reason = fmt.Sprintf("seqno %d does not follow %d", r.Seq, st.LastSeq)
		}
		if reason == "" && r.Seq <= st.LastSeq {
			reason = fmt.Sprintf("seqno %d went backwards (last %d)", r.Seq, st.LastSeq)
		}
		if reason == "" && r.Key >= keys {
			reason = fmt.Sprintf("key %d outside store of %d keys", r.Key, keys)
		}
		if reason != "" {
			fileOff := int64(headerSize + off)
			rep.Corrupt = &CorruptError{Shard: shard, Offset: fileOff, Reason: reason}
			rep.Quarantined = len(recs) - off
			if err := quarantineBytes(dir, shard, recs[off:]); err != nil {
				return nil, rep, err
			}
			if err := truncateJournal(f, fileOff, false); err != nil {
				return nil, rep, err
			}
			return st, rep, nil
		}
		st.Versions[r.Key] = r.Ver
		st.LastSeq = r.Seq
		st.Sets++
		rep.Replayed++
		if apply != nil {
			apply(r)
		}
	}
	if torn := len(recs) - off; torn > 0 {
		rep.TornBytes = torn
		if err := truncateJournal(f, int64(headerSize+off), false); err != nil {
			return nil, rep, err
		}
	}
	return st, rep, nil
}

// truncateJournal cuts the journal at off (rewriting the header when the
// whole file is being reset) and makes the repair durable.
func truncateJournal(f *os.File, off int64, rewriteHeader bool) error {
	if rewriteHeader {
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: repair truncate: %w", err)
		}
		if _, err := f.WriteAt([]byte(journalMark), 0); err != nil {
			return fmt.Errorf("wal: repair header: %w", err)
		}
	} else if err := f.Truncate(off); err != nil {
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: repair sync: %w", err)
	}
	return nil
}

// quarantineBytes appends the condemned suffix to the shard's quarantine
// file so corruption is preserved for post-mortems, never replayed.
func quarantineBytes(dir string, shard int, b []byte) error {
	q, err := os.OpenFile(quarantinePath(dir, shard), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: quarantine open: %w", err)
	}
	defer q.Close()
	if _, err := q.Write(b); err != nil {
		return fmt.Errorf("wal: quarantine write: %w", err)
	}
	if err := q.Sync(); err != nil {
		return fmt.Errorf("wal: quarantine sync: %w", err)
	}
	return nil
}
