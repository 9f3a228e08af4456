package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sliceaware/internal/wal"
)

// waitLimit bounds every wait in these tests; none is expected to come
// near it.
const waitLimit = 10 * time.Second

// until yields until cond holds, failing the test after waitLimit. It is
// for state a channel cannot report: how far a blocked goroutine got.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// commitGate is a shard's commit function under test control: each commit
// reports its batch on started and waits for a verdict on release. true
// commits the batch; false fails it the one way Commit can be driven to
// fail without a broken disk — recommitting the previous batch, which the
// journal refuses as out of order and is poisoned by. Each outcome is then
// reported on results, before the committer publishes it.
type commitGate struct {
	t       *testing.T
	started chan wal.Batch
	release chan bool
	results chan error
	prev    wal.Batch // committer-owned
}

func newCommitGate(t *testing.T) *commitGate {
	return &commitGate{
		t:       t,
		started: make(chan wal.Batch),
		release: make(chan bool),
		results: make(chan error, 64),
	}
}

func (g *commitGate) commit(j *wal.Journal, b wal.Batch) error {
	g.started <- b
	var err error
	if <-g.release {
		err = j.Commit(b)
		g.prev = b
	} else {
		err = j.Commit(g.prev)
	}
	g.results <- err
	return err
}

// held waits for the next commit to start and returns its batch.
func (g *commitGate) held() wal.Batch {
	g.t.Helper()
	select {
	case b := <-g.started:
		return b
	case <-time.After(waitLimit):
		g.t.Fatal("no commit started")
		return wal.Batch{}
	}
}

// let answers the held commit: true commits it, false fails it.
func (g *commitGate) let(ok bool) {
	g.t.Helper()
	select {
	case g.release <- ok:
	case <-time.After(waitLimit):
		g.t.Fatal("no commit was waiting for a verdict")
	}
}

// result waits for the outcome of the commit last let go.
func (g *commitGate) result() error {
	g.t.Helper()
	select {
	case err := <-g.results:
		return err
	case <-time.After(waitLimit):
		g.t.Fatal("commit never returned")
		return nil
	}
}

// pump commits everything for real until quit closes, a commit already
// held included: teardown must not hang on a gate no test step answers
// any more.
func (g *commitGate) pump(quit <-chan struct{}) {
	for {
		select {
		case <-g.started:
			g.release <- true
		case g.release <- true:
		case <-quit:
			return
		}
	}
}

// walShard is one journaling shard outside the network: each request
// runs on a goroutine of its own as on a connection, its commits pass
// through a gate, and the group commit is due every flushRecs SETs (the
// flush ticker is out of reach). The test plays the supervisor: a crash
// arrives on crashed, and the test restores and resumes the shard.
type walShard struct {
	t       *testing.T
	sh      *shard
	gate    *commitGate
	crashed chan error
	down    atomic.Bool // crashed and not resumed: the crash holds the lock
}

func newWalShard(t *testing.T, flushRecs, snapEvery int) *walShard {
	t.Helper()
	cfg := defaultConfig()
	cfg.shards = 1
	cfg.keys = 1 << 10
	cfg.warmup = 8
	cfg.aqm = "none"
	cfg.walDir = t.TempDir()
	cfg.walFlushEvery = time.Hour
	cfg.walFlushRecs = flushRecs
	cfg.walSnapEvery = snapEvery
	sh, err := newShard(0, cfg, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	sh.logf = t.Logf
	w := &walShard{t: t, sh: sh, gate: newCommitGate(t), crashed: make(chan error, 1)}
	sh.commit = w.gate.commit
	sh.fail = func(cause error) {
		w.down.Store(true)
		w.crashed <- cause
	}
	if _, err := sh.recoverState(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		quit := make(chan struct{})
		defer close(quit)
		go w.gate.pump(quit)
		sh.closeWAL(w.down.Load())
	})
	return w
}

// flush is one group-commit tick under the shard lock, then waits for the
// batch in flight to be committed.
func (w *walShard) flush() {
	w.sh.lock <- struct{}{}
	w.sh.flushWAL()
	w.sh.waitCommit()
	w.sh.unlock()
}

// crash waits for the shard to report a crash.
func (w *walShard) crash() {
	w.t.Helper()
	select {
	case <-w.crashed:
	case <-time.After(waitLimit):
		w.t.Fatal("the shard never reported its crash")
	}
}

// resume is the supervisor's last step after a restore: it releases the
// lock the crash left held.
func (w *walShard) resume() {
	w.down.Store(false)
	w.sh.unlock()
}

// send starts one request on a goroutine of its own and returns the
// channel its reply arrives on. It returns once the request holds the
// shard lock or waits for it, so requests sent one after another take the
// lock in that order.
func (w *walShard) send(rank uint64, isGet bool) <-chan respMsg {
	w.t.Helper()
	waiting := w.sh.waiters.Load()
	reply, queued := make(chan respMsg, 1), make(chan struct{})
	go func() {
		err := w.sh.acquire(stoppedTimer(), waitLimit)
		close(queued)
		if err != nil {
			reply <- respMsg{err: err}
			return
		}
		reply <- w.sh.exec(&request{rank: rank, isGet: isGet, enqueued: time.Now()})
	}()
	until(w.t, "the request to take the shard lock or queue for it", func() bool {
		select {
		case <-queued:
			return true
		default:
			return w.sh.waiters.Load() > waiting
		}
	})
	return reply
}

func (w *walShard) reply(c <-chan respMsg) respMsg {
	w.t.Helper()
	select {
	case r := <-c:
		return r
	case <-time.After(waitLimit):
		w.t.Fatal("request never answered")
		return respMsg{}
	}
}

// set serves one SET of key rank and requires it acked with seqno want.
func (w *walShard) set(rank, want uint64) respMsg {
	w.t.Helper()
	r := w.reply(w.send(rank, false))
	if r.err != nil || r.seq != want {
		w.t.Fatalf("SET of key %d: seq %d err %v, want acked at seq %d", rank, r.seq, r.err, want)
	}
	return r
}

// setKeys acks SETs first..last, SET n on key n%8.
func (w *walShard) setKeys(first, last uint64) {
	w.t.Helper()
	for seq := first; seq <= last; seq++ {
		w.set(seq%8, seq)
	}
}

// pending reports, and bounds, the acked SETs that are not durable.
func (w *walShard) pending() uint64 {
	w.t.Helper()
	p := w.sh.walPending()
	if limit := uint64(2 * w.sh.flushRecs); p > limit {
		w.t.Fatalf("%d acked SETs not durable, more than 2 × %d", p, w.sh.flushRecs)
	}
	return p
}

func notYet(t *testing.T, c <-chan respMsg, what string) {
	t.Helper()
	select {
	case r := <-c:
		t.Fatalf("%s answered (%+v) while the previous batch was held", what, r)
	default:
	}
}

func TestCommitterHeldCommitDoesNotBlockServing(t *testing.T) {
	w := newWalShard(t, 4, 0)
	w.setKeys(1, 4)
	if b := w.gate.held(); b.Len() != 4 || b.Last() != 4 {
		t.Fatalf("first batch holds %d records through %d, want 4 through 4", b.Len(), b.Last())
	}
	// The commit is held open; a SET and a GET are served regardless.
	w.set(5, 5)
	if r := w.reply(w.send(5, true)); r.err != nil || r.ver != 1 {
		t.Fatalf("GET while a commit is held: %+v, want version 1", r)
	}
	if d := w.sh.durableSeqA.Load(); d != 0 {
		t.Fatalf("durable seq %d while the first commit is held, want 0", d)
	}
	w.gate.let(true)
	if err := w.gate.result(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitterOneBatchInFlight(t *testing.T) {
	w := newWalShard(t, 4, 0)
	w.setKeys(1, 4)
	w.gate.held()
	w.setKeys(5, 7)
	// SET 8 makes the next batch due while the first is still held: its
	// append lands, then it waits holding the shard lock, so SET 9 cannot
	// even start.
	r8, r9 := w.send(8, false), w.send(9, false)
	until(t, "SET 8 appended", func() bool { return w.sh.seqA.Load() == 8 })
	notYet(t, r8, "SET 8")
	if p := w.pending(); p != 8 {
		t.Fatalf("%d SETs not durable, want 8: one held batch plus a full tail", p)
	}
	if s := w.sh.seqA.Load(); s != 8 {
		t.Fatalf("seq %d, want 8: the shard went on past a due batch", s)
	}

	w.gate.let(true)
	if b := w.gate.held(); b.Len() != 4 || b.Last() != 8 {
		t.Fatalf("second batch holds %d records through %d, want 5..8", b.Len(), b.Last())
	}
	if r := w.reply(r8); r.err != nil || r.seq != 8 {
		t.Fatalf("SET 8: %+v, want acked at seq 8", r)
	}
	// SET 8's ack followed the first commit's return.
	select {
	case err := <-w.gate.results:
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("SET 8 acked before the first batch's commit returned")
	}
	if r := w.reply(r9); r.err != nil || r.seq != 9 {
		t.Fatalf("SET 9: %+v, want acked at seq 9", r)
	}
	if p := w.pending(); p != 5 {
		t.Fatalf("%d SETs not durable, want 5: the held second batch plus SET 9", p)
	}
	w.gate.let(true)
	if err := w.gate.result(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitterGaugesCountInFlight(t *testing.T) {
	w := newWalShard(t, 4, 0)
	sh := w.sh
	t0 := time.Now()
	w.setKeys(1, 4)
	w.gate.held()
	t5 := time.Now()
	w.setKeys(5, 6)

	// Four records in flight and two buffered: none of them durable.
	if p := w.pending(); p != 6 {
		t.Fatalf("pending gauge %d with a batch held, want 6 (in flight + buffered)", p)
	}
	if lag := sh.walFlushLag(); lag <= 0 || lag > time.Since(t0) {
		t.Fatalf("flush lag %v, want the age of SET 1 (≤ %v)", lag, time.Since(t0))
	}
	if d := sh.durableSeqA.Load(); d != 0 {
		t.Fatalf("durable seq %d, want 0", d)
	}

	// Commit the first batch; SET 8 makes the second due, and its ack
	// comes after the committer published the first.
	w.gate.let(true)
	w.setKeys(7, 8)
	w.gate.held()
	if d := sh.durableSeqA.Load(); d != 4 {
		t.Fatalf("durable seq %d after the first commit, want 4", d)
	}
	if p := w.pending(); p != 4 {
		t.Fatalf("pending gauge %d, want the 4 records of the held batch", p)
	}
	if lag := sh.walFlushLag(); lag <= 0 || lag > time.Since(t5) {
		t.Fatalf("flush lag %v, want the age of SET 5 (≤ %v)", lag, time.Since(t5))
	}

	// Once the rest is committed, and only then, the gauges clear.
	w.gate.let(true)
	w.flush()
	if p, lag, d := w.pending(), sh.walFlushLag(), sh.durableSeqA.Load(); p != 0 || lag != 0 || d != 8 {
		t.Fatalf("after stop: pending %d lag %v durable %d, want 0/0/8", p, lag, d)
	}
}

func TestCommitterSnapshotWaitsForHeldBatch(t *testing.T) {
	w := newWalShard(t, 4, 6)
	w.setKeys(1, 4)
	w.gate.held()
	w.set(5, 5)
	// SET 6 is due a snapshot, which must not truncate under the write.
	r6 := w.send(6, false)
	until(t, "SET 6 appended", func() bool { return w.sh.seqA.Load() == 6 })
	notYet(t, r6, "SET 6")
	if n := w.sh.walSnapsA.Load(); n != 0 {
		t.Fatalf("%d snapshots taken while a batch was held, want 0", n)
	}
	w.gate.let(true)
	if r := w.reply(r6); r.err != nil {
		t.Fatal(r.err)
	}
	if err := <-w.gate.results; err != nil {
		t.Fatal(err)
	}
	if n, d := w.sh.walSnapsA.Load(), w.sh.durableSeqA.Load(); n != 1 || d != 6 {
		t.Fatalf("after SET 6: %d snapshots, durable seq %d, want 1 and 6", n, d)
	}
	snap, err := wal.ReadSnapshot(w.sh.cfg.walDir, 0)
	if err != nil || snap.LastSeq != 6 {
		t.Fatalf("snapshot %+v (%v), want one through seq 6", snap, err)
	}
}

func TestCommitterWarmRestartWaitsForHeldBatch(t *testing.T) {
	w := newWalShard(t, 4, 0)
	sh := w.sh
	w.setKeys(1, 4)
	w.gate.held()
	w.setKeys(5, 6)

	// Crash the shard with the first batch held and two SETs buffered.
	sh.crash.Store(true)
	if r := w.reply(w.send(0, true)); !errors.Is(r.err, errCrashed) {
		t.Fatalf("crashing request: %+v, want errCrashed at once", r)
	}
	w.crash()

	restored := make(chan error, 1)
	go func() { restored <- sh.restore() }()
	// The restore commits the buffered tail, but only after the held batch.
	w.gate.let(true)
	if b := w.gate.held(); b.Len() != 2 || b.Last() != 6 {
		t.Fatalf("restore committed %d records through %d, want 5..6", b.Len(), b.Last())
	}
	select {
	case err := <-restored:
		t.Fatalf("restore returned (%v) with the tail's commit held", err)
	default:
	}
	w.gate.let(true)
	select {
	case err := <-restored:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(waitLimit):
		t.Fatal("restore never returned")
	}
	if sh.seq != 6 || sh.recoveredSeqA.Load() != 6 {
		t.Fatalf("restore recovered seq %d (recovered gauge %d), want 6", sh.seq, sh.recoveredSeqA.Load())
	}
	for k := uint64(1); k <= 6; k++ {
		if sh.vers[k] != 1 {
			t.Fatalf("key %d at version %d after restore, want 1", k, sh.vers[k])
		}
	}
	w.resume()
	w.set(7, 7)
}

func TestCommitterFailedCommitRefusesNextSet(t *testing.T) {
	w := newWalShard(t, 4, 0)
	w.setKeys(1, 4)
	w.gate.held()
	w.gate.let(true)
	if err := w.gate.result(); err != nil {
		t.Fatal(err)
	}
	w.setKeys(5, 8)
	w.gate.held()
	w.gate.let(false)
	if err := w.gate.result(); err == nil {
		t.Fatal("the failing commit succeeded")
	}
	r := w.reply(w.send(9, false))
	if r.err == nil || !strings.Contains(r.err.Error(), "retryable") {
		t.Fatalf("SET after a failed commit: %+v, want a retryable refusal", r)
	}
	// The failed batch is not durable, and the gauges keep counting it.
	if d, p := w.sh.durableSeqA.Load(), w.pending(); d != 4 || p != 4 {
		t.Fatalf("durable %d pending %d after the failed commit, want 4 and 4", d, p)
	}
	if lag := w.sh.walFlushLag(); lag <= 0 {
		t.Fatalf("flush lag %v after the failed commit, want > 0", lag)
	}
}

// TestCommitterDrainWaitsForHeldBatch drains a live daemon with a batch
// held: the drain commits the buffered tail after it, and recovery then
// rebuilds exactly what was acked.
func TestCommitterDrainWaitsForHeldBatch(t *testing.T) {
	cfg := walConfig(t)
	cfg.shards = 1
	cfg.walFlushEvery = time.Hour
	cfg.walFlushRecs = 4
	gate := newCommitGate(t)
	s := startServerWith(t, cfg, func(s *server) { s.shards[0].commit = gate.commit })
	c := dialClient(t, s.Addr())

	acked := map[string]int{}
	setv := func(i int) {
		t.Helper()
		key := fmt.Sprintf("k%d", i%3)
		f := strings.Fields(c.setv(key, "v"))
		if len(f) != 4 || f[0] != "STORED" || atoi(t, f[2]) != i {
			t.Fatalf("setv #%d = %v, want STORED 0 %d <ver>", i, f, i)
		}
		acked[key] = atoi(t, f[3])
	}
	for i := 1; i <= 4; i++ {
		setv(i)
	}
	gate.held()
	setv(5)
	setv(6)

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	// The drain hands the tail over only once the held batch returned.
	gate.let(true)
	if b := gate.held(); b.Len() != 2 || b.Last() != 6 {
		t.Fatalf("drain committed %d records through %d, want 5..6", b.Len(), b.Last())
	}
	select {
	case <-drained:
		t.Fatal("drain finished with the tail's commit held")
	default:
	}
	gate.let(true)
	select {
	case <-drained:
	case <-time.After(waitLimit):
		t.Fatal("drain never finished")
	}
	for i := 0; i < 2; i++ {
		if err := <-gate.results; err != nil {
			t.Fatal(err)
		}
	}

	st, rep, err := wal.Recover(cfg.walDir, 0, cfg.keysPerShard(), nil)
	if err != nil || rep.Corrupt != nil {
		t.Fatalf("recover: %v / %v", err, rep.Corrupt)
	}
	if st.LastSeq != 6 {
		t.Fatalf("recovered through seq %d, want 6: seqs 1..6 were acked", st.LastSeq)
	}
	for key, ver := range acked {
		rank := s.keyRank([]byte(key))
		if got := st.Versions[rank]; got != uint64(ver) {
			t.Fatalf("%s recovered at version %d, acked at %d", key, got, ver)
		}
	}
}
