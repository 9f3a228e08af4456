package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends records seq start..start+n-1 cycling over k keys and
// flushes them.
func appendN(t *testing.T, j *Journal, start uint64, n int, keys uint64) {
	t.Helper()
	vers := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		seq := start + uint64(i)
		key := seq % keys
		vers[key]++
		if err := j.Append(Record{Seq: seq, Key: key, Ver: vers[key], Op: OpSet}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const keys = 8
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 1, 20, keys)
	if j.durable.Load() != 20 || j.Pending() != 0 {
		t.Fatalf("durable=%d pending=%d, want 20/0", j.durable.Load(), j.Pending())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, rep, err := Recover(dir, 0, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 20 || rep.Corrupt != nil || rep.TornBytes != 0 {
		t.Fatalf("report %+v, want 20 replayed and clean", rep)
	}
	if st.LastSeq != 20 || st.Sets != 20 {
		t.Fatalf("state %+v, want lastSeq/sets 20", st)
	}
	// Key k was written for every seq ≡ k (mod keys): versions follow.
	for k := uint64(0); k < keys; k++ {
		want := uint64(20 / keys)
		if k >= 1 && k <= 20%keys {
			want++
		}
		if st.Versions[k] != want {
			t.Fatalf("key %d version %d, want %d", k, st.Versions[k], want)
		}
	}
}

func TestAppendRejectsNonMonotonicSeq(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Seq: 5, Key: 0, Ver: 1, Op: OpSet}); err == nil {
		t.Fatal("append at seq 5 after lastSeq 5 succeeded")
	}
	if err := j.Append(Record{Seq: 6, Key: 0, Ver: 1, Op: OpSet}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	const keys = 4
	j, err := OpenJournal(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 1, 10, keys)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record of garbage.
	path := journalPath(dir, 2)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, recordSize/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, rep, err := Recover(dir, 2, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != recordSize/2 || rep.Corrupt != nil {
		t.Fatalf("report %+v, want torn tail of %d bytes and no corruption", rep, recordSize/2)
	}
	if st.LastSeq != 10 {
		t.Fatalf("lastSeq %d, want 10", st.LastSeq)
	}
	// The repair is durable: a second recovery sees a clean journal...
	_, rep2, err := Recover(dir, 2, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TornBytes != 0 || rep2.Replayed != 10 {
		t.Fatalf("second recovery %+v, want clean replay of 10", rep2)
	}
	// ...and appending continues at the boundary.
	j2, err := OpenJournal(dir, 2, st.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j2, 11, 3, keys)
	j2.Close()
	st3, _, err := Recover(dir, 2, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st3.LastSeq != 13 {
		t.Fatalf("lastSeq after continued appends %d, want 13", st3.LastSeq)
	}
}

func TestRecoverQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	const keys = 4
	j, err := OpenJournal(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 1, 10, keys)
	j.Close()

	// Flip a byte inside record 6 (0-indexed 5): records 1..5 stay
	// durable, 6..10 are condemned.
	path := journalPath(dir, 1)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := headerSize + 5*recordSize
	buf[off+7] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rep, err := Recover(dir, 1, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == nil {
		t.Fatal("corruption not reported")
	}
	var ce *CorruptError
	if !errors.As(error(rep.Corrupt), &ce) || ce.Shard != 1 || ce.Offset != int64(off) {
		t.Fatalf("corrupt error %+v, want shard 1 offset %d", rep.Corrupt, off)
	}
	if rep.Replayed != 5 || st.LastSeq != 5 {
		t.Fatalf("replayed %d lastSeq %d, want durable prefix of 5", rep.Replayed, st.LastSeq)
	}
	if rep.Quarantined != 5*recordSize {
		t.Fatalf("quarantined %d bytes, want %d", rep.Quarantined, 5*recordSize)
	}
	q, err := os.ReadFile(quarantinePath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 5*recordSize {
		t.Fatalf("quarantine file holds %d bytes, want %d", len(q), 5*recordSize)
	}
	// The journal itself is repaired to the durable prefix.
	st2, rep2, err := Recover(dir, 1, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != nil || rep2.Replayed != 5 || st2.LastSeq != 5 {
		t.Fatalf("post-repair recovery %+v lastSeq %d, want clean 5", rep2, st2.LastSeq)
	}
}

func TestRecoverQuarantinesSeqGap(t *testing.T) {
	dir := t.TempDir()
	const keys = 4
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 5} { // gap: 3,4 missing
		if err := j.Append(Record{Seq: seq, Key: 0, Ver: seq, Op: OpSet}); err != nil {
			// Append enforces only monotonicity, not contiguity; a gap
			// must come from disk damage, so fabricate it below instead.
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	st, rep, err := Recover(dir, 0, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == nil || rep.Replayed != 2 || st.LastSeq != 2 {
		t.Fatalf("report %+v lastSeq %d, want gap quarantined after 2", rep, st.LastSeq)
	}
}

func TestSnapshotRoundTripAndReplayOnTop(t *testing.T) {
	dir := t.TempDir()
	const keys = 6
	snap := &Snapshot{
		Shard: 3, LastSeq: 40, Gets: 100, Sets: 40, Served: 140,
		Versions: []uint64{4, 0, 9, 1, 0, 26},
	}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 40 || got.Gets != 100 || got.Versions[5] != 26 {
		t.Fatalf("snapshot round trip %+v", got)
	}

	// Journal carries the delta past the snapshot plus a stale prefix
	// (crash between snapshot and truncation).
	j, err := OpenJournal(dir, 3, 38)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(39); seq <= 43; seq++ {
		if err := j.Append(Record{Seq: seq, Key: seq % keys, Ver: 50 + seq, Op: OpSet}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var applied []Record
	st, rep, err := Recover(dir, 3, keys, func(r Record) { applied = append(applied, r) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded || rep.SnapshotSeq != 40 {
		t.Fatalf("report %+v, want snapshot at seq 40", rep)
	}
	if rep.SkippedOld != 2 || rep.Replayed != 3 {
		t.Fatalf("report %+v, want 2 skipped + 3 replayed", rep)
	}
	if st.LastSeq != 43 || st.Sets != 43 {
		t.Fatalf("state lastSeq=%d sets=%d, want 43/43", st.LastSeq, st.Sets)
	}
	if len(applied) != 3 || applied[0].Seq != 41 {
		t.Fatalf("apply saw %+v, want replayed records 41..43", applied)
	}
	if st.Versions[41%keys] != 50+41 {
		t.Fatalf("replay did not overwrite snapshot version: %d", st.Versions[41%keys])
	}
}

func TestSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		s := &Snapshot{Shard: 0, LastSeq: uint64(i), Versions: make([]uint64, 4)}
		if err := WriteSnapshot(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadSnapshot(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 3 {
		t.Fatalf("lastSeq %d, want latest snapshot (3)", got.LastSeq)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("snapshot dir holds %v, want exactly one file", names)
	}
}

func TestCorruptSnapshotFallsBackToJournal(t *testing.T) {
	dir := t.TempDir()
	const keys = 4
	snap := &Snapshot{Shard: 0, LastSeq: 10, Sets: 10, Versions: make([]uint64, keys)}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	// Damage the snapshot body.
	path := snapshotPath(dir, 0)
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 11, 4, keys)
	j.Close()

	st, rep, err := Recover(dir, 0, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotCorrupt || rep.SnapshotLoaded {
		t.Fatalf("report %+v, want corrupt snapshot noted", rep)
	}
	if rep.Replayed != 4 || st.LastSeq != 14 {
		t.Fatalf("journal-only replay %+v lastSeq %d, want 4 records through 14", rep, st.LastSeq)
	}
}

func TestRecoverFreshDirectory(t *testing.T) {
	st, rep, err := Recover(filepath.Join(t.TempDir(), "nonexistent"), 0, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotLoaded || rep.Replayed != 0 || st.LastSeq != 0 || len(st.Versions) != 16 {
		t.Fatalf("fresh recovery %+v / %+v, want zeroed state", rep, st)
	}
}

func TestRecoverQuarantinesAlienFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir, 0), []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, rep, err := Recover(dir, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == nil || rep.Quarantined == 0 || st.LastSeq != 0 {
		t.Fatalf("report %+v, want full quarantine", rep)
	}
	// The repaired journal accepts appends again.
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 1, 2, 4)
	j.Close()
	st2, rep2, err := Recover(dir, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != nil || st2.LastSeq != 2 {
		t.Fatalf("post-repair %+v lastSeq %d, want clean 2", rep2, st2.LastSeq)
	}
}

func TestJournalResetKeepsSeqnos(t *testing.T) {
	dir := t.TempDir()
	const keys = 4
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 1, 8, keys)
	// Snapshot then truncate, as the shard does.
	if err := WriteSnapshot(dir, &Snapshot{Shard: 0, LastSeq: 8, Sets: 8, Versions: make([]uint64, keys)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	appendN(t, j, 9, 3, keys)
	j.Close()

	st, rep, err := Recover(dir, 0, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded || rep.Replayed != 3 || st.LastSeq != 11 {
		t.Fatalf("report %+v lastSeq %d, want snapshot + 3 replayed through 11", rep, st.LastSeq)
	}
}
