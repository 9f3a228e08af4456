package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendRange appends records first..last on key seq%4 without flushing.
func appendRange(t testing.TB, j *Journal, first, last uint64) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		if err := j.Append(Record{Seq: seq, Key: seq % 4, Ver: seq, Op: OpSet}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFlushIsDetachThenCommit(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := OpenJournal(dirA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenJournal(dirB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]uint64{{1, 5}, {6, 6}, {7, 20}} {
		appendRange(t, a, r[0], r[1])
		appendRange(t, b, r[0], r[1])
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(b.Detach()); err != nil {
			t.Fatal(err)
		}
		if a.durable.Load() != r[1] || b.durable.Load() != r[1] || a.flushes.Load() != b.flushes.Load() {
			t.Fatalf("after %v: durable %d/%d flushes %d/%d, want %d and equal counts",
				r, a.durable.Load(), b.durable.Load(), a.flushes.Load(), b.flushes.Load(), r[1])
		}
	}
	a.Close()
	b.Close()
	fa, _ := os.ReadFile(journalPath(dirA, 0))
	fb, _ := os.ReadFile(journalPath(dirB, 0))
	if !bytes.Equal(fa, fb) {
		t.Fatalf("Flush wrote %d bytes, Detach+Commit %d: journals differ", len(fa), len(fb))
	}
}

func TestDetachOfNothingIsAnEmptyBatch(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := j.Detach()
	if b.Len() != 0 {
		t.Fatalf("empty detach holds %d records", b.Len())
	}
	if err := j.Commit(b); err != nil || j.durable.Load() != 3 || j.flushes.Load() != 0 {
		t.Fatalf("empty commit: err %v durable %d flushes %d, want nil/3/0", err, j.durable.Load(), j.flushes.Load())
	}
}

func TestDetachRecyclesBuffers(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const batch = 64
	seq := uint64(0)
	cycle := func() Batch {
		appendRange(t, j, seq+1, seq+batch)
		seq += batch
		b := j.Detach()
		if err := j.Commit(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Two cycles grow both buffers; from then on they alternate.
	b1, b2 := cycle(), cycle()
	if b3 := cycle(); &b3.buf[0] != &b1.buf[0] {
		t.Fatal("third batch did not reuse the first batch's buffer")
	}
	if b4 := cycle(); &b4.buf[0] != &b2.buf[0] {
		t.Fatal("fourth batch did not reuse the second batch's buffer")
	}
	if allocs := testing.AllocsPerRun(20, func() { cycle() }); allocs != 0 {
		t.Fatalf("append+detach+commit of %d records: %v allocs, want 0", batch, allocs)
	}
}

func TestCommitAdvancesDurableSeq(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendRange(t, j, 11, 14)
	b := j.Detach()
	if b.Len() != 4 || b.Last() != 14 {
		t.Fatalf("batch holds %d records through %d, want 4 through 14", b.Len(), b.Last())
	}
	if j.Pending() != 0 || j.lastSeq != 14 || j.durable.Load() != 10 {
		t.Fatalf("after detach: pending %d last %d durable %d, want 0/14/10", j.Pending(), j.lastSeq, j.durable.Load())
	}
	// Appends continue while the batch is out.
	appendRange(t, j, 15, 16)
	if j.durable.Load() != 10 {
		t.Fatalf("durable moved to %d before any commit", j.durable.Load())
	}
	if err := j.Commit(b); err != nil {
		t.Fatal(err)
	}
	if j.durable.Load() != 14 || j.Pending() != 2 {
		t.Fatalf("after commit: durable %d pending %d, want 14/2", j.durable.Load(), j.Pending())
	}
}

// TestCommitsLandInSeqOrder runs the daemon's arrangement — the test
// goroutine appends and detaches, a committer goroutine commits, one
// batch in flight — and checks the journal replays 1..n contiguously.
func TestCommitsLandInSeqOrder(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := make(chan Batch, 1)
	done := make(chan error)
	go func() {
		for b := range batches {
			done <- j.Commit(b)
		}
		close(done)
	}()
	const n, per = 500, 7
	inFlight := false
	for seq := uint64(1); seq <= n; seq++ {
		appendRange(t, j, seq, seq)
		if j.Pending() == per || seq == n {
			if inFlight {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			batches <- j.Detach()
			inFlight = true
		}
	}
	close(batches)
	for err := range done {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	st, rep, err := Recover(dir, 0, 4, func(r Record) { seqs = append(seqs, r.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != nil || st.LastSeq != n || len(seqs) != n {
		t.Fatalf("recovered %d records through %d (corrupt %v), want 1..%d", len(seqs), st.LastSeq, rep.Corrupt, n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("record %d has seq %d: not contiguous", i, s)
		}
	}
}

func TestCommitRefusesOutOfOrderBatch(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendRange(t, j, 1, 4)
	b := j.Detach()
	if err := j.Commit(b); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(b); err == nil {
		t.Fatal("recommitting a durable batch succeeded")
	}
	if err := j.Append(Record{Seq: 5, Op: OpSet}); err == nil {
		t.Fatal("append after an out-of-order commit succeeded: journal not poisoned")
	}
}

// TestCommitFailurePoisonsAcrossGoroutines fails a commit on one goroutine
// while another appends and a third reads the durable seqno — the race
// detector checks the poisoned flag and the seqno are shared safely.
func TestCommitFailurePoisonsAcrossGoroutines(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, j, 1, 8)
	b := j.Detach()
	j.f.Close() // every later write fails

	appendErr := make(chan error)
	go func() {
		for seq := uint64(9); ; seq++ {
			if err := j.Append(Record{Seq: seq, Op: OpSet}); err != nil {
				appendErr <- err
				return
			}
			if j.Pending() == 1<<16 {
				j.buf, j.pending = j.buf[:0], 0 // bound the buffer
			}
		}
	}()
	readerDone := make(chan uint64)
	go func() {
		var max uint64
		for i := 0; i < 1000; i++ {
			if d := j.durable.Load(); d > max {
				max = d
			}
		}
		readerDone <- max
	}()
	if err := j.Commit(b); err == nil {
		t.Fatal("commit to a closed file succeeded")
	}
	if err := <-appendErr; !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append after failed commit: %v, want poisoned", err)
	}
	if max := <-readerDone; max != 0 {
		t.Fatalf("durable seq read %d, want 0: nothing was committed", max)
	}
	if err := j.Commit(Batch{}); err == nil {
		t.Fatal("commit on a poisoned journal succeeded")
	}
}

func TestWriteFileAtomicNoTempOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("old"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	encodeErr := errors.New("encode failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half a docum"))
		return encodeErr
	})
	if !errors.Is(err, encodeErr) {
		t.Fatalf("WriteFileAtomic = %v, want the encode error", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Fatalf("dir holds %d entries, want only the target", len(ents))
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("target = %q after a failed write, want the old contents", got)
	}
}
