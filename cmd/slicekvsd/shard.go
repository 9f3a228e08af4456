package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/faults"
	"sliceaware/internal/kvs"
	"sliceaware/internal/obs"
	"sliceaware/internal/overload"
	"sliceaware/internal/wal"
	"sliceaware/internal/zipf"
)

// Retryable protocol-level refusals. Every message contains "retryable" so
// clients can classify without a table of reasons.
var (
	errShed     = errors.New("overloaded: shed (retryable)")
	errInbox    = errors.New("overloaded: shard queue full (retryable)")
	errAQM      = errors.New("overloaded: aqm drop (retryable)")
	errDegraded = errors.New("degraded: request class refused at this level (retryable)")
	errBreaker  = errors.New("shard unavailable: breaker open (retryable)")
	errTimeout  = errors.New("timeout: shard did not answer (retryable)")
	errDraining = errors.New("draining: server is shutting down (retryable)")
	errCorrupt  = errors.New("injected: frame corrupt (retryable)")
	errCrashed  = errors.New("shard crashed: restarting (retryable)")
)

// request is one admitted protocol request for a shard.
type request struct {
	rank     uint64 // shard-local key rank
	isGet    bool
	enqueued time.Time     // when it started waiting for the shard lock
	tr       *obs.ReqTrace // nil unless the tracer sampled this request
}

// stoppedTimer returns a timer that is stopped with its channel empty,
// the state acquire expects and leaves it in.
func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop() // cannot have fired yet: nothing to drain
	return t
}

// respMsg is the shard's answer. ver/seq carry the key's version and the
// shard's write seqno for the verbose (setv/getv) protocol verbs; seq is
// zero when journaling is disabled.
type respMsg struct {
	cycles uint64
	ver    uint64
	seq    uint64
	err    error
	silent bool // injected NIC drop: reply with nothing at all
}

// shard is one slice of the keyspace: its own simulated machine, its own
// slice-aware store pinned to core sh.core of that machine, a FIFO lock
// with a bounded queue of waiters, an AQM on that queue, a circuit breaker
// guarding dispatch, and an optional fault injector. The pinning is the
// model's: no host thread is tied to the simulated core. A request runs
// on its own connection goroutine, which takes the shard lock and serves
// the request on the store, so it never crosses to another goroutine and
// back. The store, version table, journal and AQM are touched only under
// the lock; everything read without it is an atomic or the SyncBreaker.
type shard struct {
	id    int
	core  int
	keys  uint64 // store keyspace size
	cfg   config // kept for rebuilding the store on warm restart
	store *kvs.Store

	// lock is the shard lock: a request holds it while it is served, the
	// group-commit ticker while it flushes. Full means held. A blocked send
	// waits in the channel's FIFO queue, and a release hands the lock
	// straight to the longest waiter, so waiters are served in arrival
	// order and a newcomer cannot overtake them. waiters counts the
	// requests blocked on it: the shard's queue, bounded by cfg.inbox.
	// A panic in serve leaves the lock held and reports the crash through
	// fail. The supervisor releases it (resume) after the backoff and, when
	// the shard journals, after restore has rebuilt the store, so nothing
	// ever runs on a crashed one.
	lock    chan struct{}
	waiters atomic.Int32
	fail    func(cause error)

	breaker *overload.SyncBreaker
	aqm     overload.AQM

	injMu    sync.Mutex
	injector *faults.Injector

	crash atomic.Bool // the next request served panics (chaos crash)

	served   atomic.Uint64
	aqmDrops atomic.Uint64

	// Durability. vers is the per-key version table (always maintained —
	// one increment per SET); jr is the write journal, nil when -wal-dir is
	// unset, and then the SET path pays exactly one nil check (the wal
	// nil-is-free contract). vers/jr/seq/setsSinceSnap/inFlight are
	// guarded by the shard lock: requests, the group-commit flush, the
	// restore hook (under the lock a crash left held) and drain-time
	// closeWAL all hold it. The atomics below mirror journal state for
	// stats/metrics read without it.
	vers          []uint64
	jr            *wal.Journal
	seq           uint64
	setsSinceSnap int
	flushRecs     int
	snapEvery     int

	// The committer: one goroutine per open journal, which runs commit
	// (the write + fsync) on each batch the lock holder detaches. commitC
	// carries at most one batch at a time — inFlight is set from the
	// hand-off until commitDone answers it — and commitDone closes when
	// the committer exits. commit is (*wal.Journal).Commit; tests swap it
	// to hold a commit open.
	commit     func(*wal.Journal, wal.Batch) error
	commitC    chan wal.Batch
	commitDone chan struct{}
	inFlight   bool

	seqA            atomic.Uint64 // last assigned seqno
	durableSeqA     atomic.Uint64 // last fsynced seqno, advanced by the committer
	recoveredSeqA   atomic.Uint64 // seqno recovery rebuilt through (this boot/restart)
	tailSinceNs     atomic.Int64  // unix ns of the first buffered, undetached append (0 = none)
	inFlightSinceNs atomic.Int64  // unix ns of the first detached append not yet durable (0 = none)
	walSnapsA       atomic.Uint64
	walReplayedA    atomic.Uint64
	walQuarantineA  atomic.Uint64
	restoresA       atomic.Uint64

	logf func(format string, args ...any)

	// sojournBits holds the float64 bits of an EWMA of the wait for the
	// shard lock (ns). Each request writes it once it holds the lock; the
	// pressure ticker decays it while nothing waits; admission reads it.
	// Occupancy alone is blind to closed-loop overload — a handful of
	// connections can queue milliseconds of work behind a nearly-empty
	// queue — so queue delay is the daemon's primary pressure signal, as
	// in CoDel.
	sojournBits atomic.Uint64

	start time.Time // process start; the AQM clock origin
	freq  float64   // simulated core frequency, for slowdown sleeps
}

// buildStore constructs a shard's simulated machine and store — shared by
// first boot and by warm restarts, which rebuild the store from scratch
// before replaying the journal into it.
func buildStore(id int, cfg config) (*kvs.Store, int, float64, error) {
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("shard %d: %w", id, err)
	}
	core := id % m.Cores()
	store, err := kvs.New(m, kvs.Config{
		Keys:        cfg.keysPerShard(),
		ServingCore: core,
		SliceAware:  cfg.sliceAware,
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("shard %d: %w", id, err)
	}
	return store, core, m.Profile.FrequencyHz, nil
}

// newShard builds one shard over keysPerShard keys.
func newShard(id int, cfg config, start time.Time) (*shard, error) {
	store, core, freq, err := buildStore(id, cfg)
	if err != nil {
		return nil, err
	}
	breaker, err := overload.NewSyncBreaker(overload.BreakerConfig{
		Window:         32,
		Cooldown:       float64(cfg.breakerCooldown.Nanoseconds()),
		HalfOpenProbes: 3,
	})
	if err != nil {
		return nil, err
	}
	sh := &shard{
		id:        id,
		core:      core,
		keys:      cfg.keysPerShard(),
		cfg:       cfg,
		store:     store,
		lock:      make(chan struct{}, 1),
		breaker:   breaker,
		start:     start,
		freq:      freq,
		vers:      make([]uint64, cfg.keysPerShard()),
		flushRecs: cfg.walFlushRecs,
		snapEvery: cfg.walSnapEvery,
		commit:    (*wal.Journal).Commit,
		logf:      log.Printf,
	}
	switch cfg.aqm {
	case "codel":
		a, err := overload.NewCoDel(overload.CoDelConfig{
			TargetNs:   float64(cfg.aqmTarget.Nanoseconds()),
			IntervalNs: float64(cfg.aqmInterval.Nanoseconds()),
		})
		if err != nil {
			return nil, err
		}
		sh.aqm = a
	case "red":
		a, err := overload.NewRED(overload.REDConfig{Seed: int64(1000 + id)})
		if err != nil {
			return nil, err
		}
		sh.aqm = a
	case "none":
	default:
		return nil, fmt.Errorf("slicekvsd: unknown aqm %q (want codel, red, or none)", cfg.aqm)
	}
	return sh, nil
}

// warm touches the hot prefix so the first live requests do not pay
// compulsory-miss latency the steady state never sees. Called before the
// daemon serves, and by restore under the lock a crash left held.
func (sh *shard) warm(requests int) error {
	if requests <= 0 {
		return nil
	}
	gen, err := zipf.NewZipf(rand.New(rand.NewSource(int64(77+sh.id))), sh.keys, 0.99)
	if err != nil {
		return err
	}
	for i := 0; i < requests; i++ {
		if _, err := sh.store.ServeOne(gen.Next(), true); err != nil && !errors.Is(err, kvs.ErrDropped) {
			return err
		}
	}
	return nil
}

// setInjector atomically swaps the shard's fault injector (nil disarms).
func (sh *shard) setInjector(inj *faults.Injector) {
	sh.injMu.Lock()
	sh.injector = inj
	sh.injMu.Unlock()
}

func (sh *shard) getInjector() *faults.Injector {
	sh.injMu.Lock()
	defer sh.injMu.Unlock()
	return sh.injector
}

// acquire takes the shard lock for one request: at once when the shard is
// idle, otherwise behind the requests already waiting, in arrival order,
// for at most wait. It refuses with errInbox when cfg.inbox requests are
// already waiting, and gives up with errTimeout when wait runs out. timer
// is the caller's, stopped with its channel empty, and left that way.
func (sh *shard) acquire(timer *time.Timer, wait time.Duration) error {
	select {
	case sh.lock <- struct{}{}:
		return nil
	default:
	}
	if int(sh.waiters.Add(1)) > sh.cfg.inbox {
		sh.waiters.Add(-1)
		return errInbox
	}
	defer sh.waiters.Add(-1)
	timer.Reset(wait)
	select {
	case sh.lock <- struct{}{}:
		// go.mod predates Go 1.23's timers: one that fired while the lock
		// was granted holds a stale tick that must go before the next Reset.
		if !timer.Stop() {
			<-timer.C
		}
		return nil
	case <-timer.C:
		return errTimeout
	}
}

func (sh *shard) unlock() { <-sh.lock }

// exec serves req under the lock acquire took and releases it. A panic in
// serve (the injected crash) is answered with errCrashed at once and
// reported through fail; the lock stays held until the shard is restored.
func (sh *shard) exec(req *request) (r respMsg) {
	defer func() {
		if p := recover(); p != nil {
			sh.fail(fmt.Errorf("worker panic: %v", p))
			r = respMsg{err: errCrashed}
			return
		}
		sh.unlock()
	}()
	return sh.serve(req)
}

// flushWAL is the lock holder's half of the group commit: detach the
// buffered records and hand them to the committer, which does the write +
// fsync. At most one batch is in flight, so if the previous one is still
// committing this waits for it — the only time the shard waits on the
// disk. Under the shard lock only.
func (sh *shard) flushWAL() {
	if sh.jr == nil || sh.jr.Pending() == 0 {
		return
	}
	sh.waitCommit()
	// Keep an older stamp: it belongs to a batch whose commit failed, and
	// its records are still the oldest that are not durable.
	sh.inFlightSinceNs.CompareAndSwap(0, sh.tailSinceNs.Load())
	sh.tailSinceNs.Store(0)
	sh.inFlight = true
	sh.commitC <- sh.jr.Detach()
}

// waitCommit returns once no batch is in flight.
func (sh *shard) waitCommit() {
	if sh.inFlight {
		<-sh.commitDone
		sh.inFlight = false
	}
}

// startCommitter starts the committer of the journal just opened.
func (sh *shard) startCommitter() {
	sh.commitC = make(chan wal.Batch, 1)
	sh.commitDone = make(chan struct{}, 1)
	go sh.runCommitter(sh.jr, sh.commitC, sh.commitDone)
}

// runCommitter commits each batch it is handed, in hand-off order, and
// publishes the durable seqno. While a batch is in flight it is the only
// writer of durableSeqA and inFlightSinceNs; a failed commit leaves both,
// because those records are not durable (and the journal is poisoned, so
// the next SET is refused). It exits when the journal closes.
func (sh *shard) runCommitter(jr *wal.Journal, batches <-chan wal.Batch, done chan<- struct{}) {
	defer close(done)
	for b := range batches {
		if err := sh.commit(jr, b); err != nil {
			sh.logf("slicekvsd: shard %d wal flush: %v", sh.id, err)
		} else {
			sh.durableSeqA.Store(b.Last())
			sh.inFlightSinceNs.Store(0)
		}
		done <- struct{}{}
	}
}

// closeJournal commits the buffered tail, stops the committer and closes
// the journal. Under the shard lock only.
func (sh *shard) closeJournal() {
	sh.flushWAL()
	sh.waitCommit()
	close(sh.commitC)
	<-sh.commitDone // closed once the committer has exited
	if err := sh.jr.Close(); err != nil {
		sh.logf("slicekvsd: shard %d wal close: %v", sh.id, err)
	}
	sh.jr = nil
}

// walPending counts acked SETs that are not durable yet: buffered or in
// flight.
func (sh *shard) walPending() uint64 {
	durable := sh.durableSeqA.Load() // first: seqA never falls below it
	return sh.seqA.Load() - durable
}

// walFlushLag is the age of the oldest acked SET that is not durable yet.
func (sh *shard) walFlushLag() time.Duration {
	// The tail stamp first: a detach moves it to the in-flight stamp.
	first := sh.tailSinceNs.Load()
	if f := sh.inFlightSinceNs.Load(); f != 0 {
		first = f
	}
	if first == 0 {
		return 0
	}
	return time.Since(time.Unix(0, first))
}

// snapshotWAL writes an atomic full-state snapshot and truncates the
// journal. The snapshot covers every append so far (flushed or not), so
// buffered records need no flush first — they become redundant. An
// in-flight batch is waited for: its write must not race the truncation.
func (sh *shard) snapshotWAL() {
	if sh.jr == nil {
		return
	}
	sh.waitCommit()
	gets, sets := sh.store.Counts()
	snap := &wal.Snapshot{
		Shard: sh.id, LastSeq: sh.seq,
		Gets: gets, Sets: sets, Served: sh.served.Load(),
		Versions: sh.vers,
	}
	if err := wal.WriteSnapshot(sh.cfg.walDir, snap); err != nil {
		sh.logf("slicekvsd: shard %d wal snapshot: %v", sh.id, err)
		return
	}
	if err := sh.jr.Reset(); err != nil {
		sh.logf("slicekvsd: shard %d wal reset: %v", sh.id, err)
	}
	// The snapshot made the whole journal — pending tail included —
	// durable; drop the buffer rather than rewriting dead records.
	sh.jr.DropPending()
	sh.walSnapsA.Add(1)
	sh.setsSinceSnap = 0
	sh.durableSeqA.Store(sh.seq)
	sh.tailSinceNs.Store(0)
	sh.inFlightSinceNs.Store(0)
}

// journalSet appends one acked SET to the journal, group-committing at
// the record threshold and snapshotting at the snapshot period. Returns
// the append error; the caller must fail the request on it (an un-
// journaled write must not be acked as durable).
func (sh *shard) journalSet(rank, ver uint64) error {
	sh.seq++
	if err := sh.jr.Append(wal.Record{Seq: sh.seq, Key: rank, Ver: ver, Op: wal.OpSet}); err != nil {
		sh.seq--
		return err
	}
	sh.seqA.Store(sh.seq)
	if sh.jr.Pending() == 1 {
		sh.tailSinceNs.Store(time.Now().UnixNano())
	}
	sh.setsSinceSnap++
	if sh.snapEvery > 0 && sh.setsSinceSnap >= sh.snapEvery {
		sh.snapshotWAL()
	} else if sh.flushRecs > 0 && sh.jr.Pending() >= sh.flushRecs {
		sh.flushWAL()
	}
	return nil
}

// recoverState rebuilds the shard's durable state from snapshot+journal
// into its (fresh) store, then reopens the journal for appending. It
// runs at boot (before the daemon serves) and inside the warm-restart
// hook (under the lock a crash left held).
func (sh *shard) recoverState() (wal.Report, error) {
	st, rep, err := wal.Recover(sh.cfg.walDir, sh.id, sh.keys, func(r wal.Record) {
		// Rewarm the rebuilt store with the replayed write; the version
		// table is restored exactly below, this is cache warmth only.
		sh.store.ServeOne(r.Key, false)
	})
	if err != nil {
		return rep, err
	}
	copy(sh.vers, st.Versions)
	sh.seq = st.LastSeq
	sh.store.RestoreCounts(st.Gets, st.Sets)
	jr, err := wal.OpenJournal(sh.cfg.walDir, sh.id, st.LastSeq)
	if err != nil {
		return rep, err
	}
	sh.jr = jr
	sh.startCommitter()
	sh.setsSinceSnap = 0
	sh.seqA.Store(st.LastSeq)
	sh.durableSeqA.Store(st.LastSeq)
	sh.recoveredSeqA.Store(st.LastSeq)
	sh.tailSinceNs.Store(0)
	sh.inFlightSinceNs.Store(0)
	sh.walReplayedA.Add(uint64(rep.Replayed))
	sh.walQuarantineA.Add(uint64(rep.Quarantined))
	return rep, nil
}

// restore is the supervisor's warm-restart hook: commit whatever acked
// tail survived in memory (after the batch in flight), rebuild the store
// from scratch, and replay snapshot+journal into it. Runs on the
// supervisor's restart goroutine while the shard is down (ladder floor
// pinned) and its lock is still held from the crash, before resume
// releases it.
func (sh *shard) restore() error {
	sh.restoresA.Add(1)
	if sh.jr != nil {
		// The process survived the crash, so the unflushed tail is still
		// in memory — make it durable rather than losing it.
		sh.closeJournal()
	}
	store, core, freq, err := buildStore(sh.id, sh.cfg)
	if err != nil {
		return err
	}
	sh.store, sh.core, sh.freq = store, core, freq
	if err := sh.warm(sh.cfg.warmup); err != nil {
		return err
	}
	rep, err := sh.recoverState()
	if err != nil {
		return err
	}
	sh.logf("slicekvsd: shard %d warm restart: snapshot(seq %d loaded=%v) + %d replayed, seq %d (torn %dB, quarantined %dB)",
		sh.id, rep.SnapshotSeq, rep.SnapshotLoaded, rep.Replayed, sh.seq, rep.TornBytes, rep.Quarantined)
	return nil
}

// closeWAL is the drain-time finalization: flush the tail, snapshot, and
// close, stopping the committer. Called once nothing else runs on the
// shard: it takes the lock, unless held says a crash left it held (the
// shard is still down), and then the lock is already the caller's.
func (sh *shard) closeWAL(held bool) {
	if sh.jr == nil {
		return
	}
	if !held {
		sh.lock <- struct{}{}
		defer sh.unlock()
	}
	sh.flushWAL()
	sh.snapshotWAL()
	sh.closeJournal()
}

// occupancy is the shard's queue fill: requests waiting for the lock over
// the most that may wait.
func (sh *shard) occupancy() float64 {
	return float64(sh.waiters.Load()) / float64(sh.cfg.inbox)
}

// sojournEwma reads the smoothed queue-wait estimate in nanoseconds.
func (sh *shard) sojournEwma() float64 {
	return math.Float64frombits(sh.sojournBits.Load())
}

// decaySojourn relaxes the estimate toward zero — called by the pressure
// ticker while no request waits, so a burst's ghost does not keep
// shedding an idle shard.
func (sh *shard) decaySojourn() {
	old := sh.sojournEwma()
	if old > 0 {
		sh.sojournBits.Store(math.Float64bits(old * 0.8))
	}
}

// serve executes one request on the shard's simulated machine and returns
// its answer. The caller holds the shard lock. The AQM judges the request
// by its wait for the lock (the sojourn) against the requests still
// waiting behind it (the queue).
func (sh *shard) serve(req *request) respMsg {
	now := time.Now()
	sojournNs := float64(now.Sub(req.enqueued).Nanoseconds())
	sh.sojournBits.Store(math.Float64bits(sh.sojournEwma()*0.875 + sojournNs*0.125))
	if sh.aqm != nil {
		nowNs := float64(now.Sub(sh.start).Nanoseconds())
		if err := sh.aqm.Admit(nowNs, int(sh.waiters.Load())+1, sh.cfg.inbox, sojournNs); err != nil {
			sh.aqmDrops.Add(1)
			return respMsg{err: errAQM}
		}
	}

	inj := sh.getInjector()
	if inj.Fire(faults.NICDrop) {
		// A lost packet answers with nothing — the client's timeout/retry
		// path is the thing this fault exists to exercise.
		return respMsg{silent: true}
	}
	if inj.Fire(faults.NICCorrupt) {
		return respMsg{err: errCorrupt}
	}
	if sh.crash.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("slicekvsd: injected crash on shard %d", sh.id))
	}

	scale := inj.ServiceScale(sh.core)
	req.tr.StageStart(obs.StageStoreOp)
	cycles, err := sh.store.ServeOne(req.rank, req.isGet)
	req.tr.StageEnd(obs.StageStoreOp)
	if err != nil {
		return respMsg{err: err}
	}
	var ver uint64
	if req.isGet {
		ver = sh.vers[req.rank]
	} else {
		sh.vers[req.rank]++
		ver = sh.vers[req.rank]
		if sh.jr != nil {
			if jerr := sh.journalSet(req.rank, ver); jerr != nil {
				// The store applied the write but it cannot be made durable:
				// refuse the ack. The client must not count it as committed.
				sh.logf("slicekvsd: shard %d wal append: %v", sh.id, jerr)
				return respMsg{err: fmt.Errorf("journal write failed (retryable)")}
			}
		}
	}
	if scale > 1 {
		// A slowed core takes real wall time: stretch this request by the
		// simulated service time times (scale-1).
		extra := time.Duration(float64(cycles) / sh.freq * (scale - 1) * float64(time.Second))
		time.Sleep(extra)
	}
	sh.served.Add(1)
	return respMsg{cycles: cycles, ver: ver, seq: sh.seq}
}

// shardCheckpoint is one shard's slice of the drain checkpoint.
type shardCheckpoint struct {
	ID           int    `json:"id"`
	Core         int    `json:"core"`
	Gets         uint64 `json:"gets"`
	Sets         uint64 `json:"sets"`
	Served       uint64 `json:"served"`
	AQMDrops     uint64 `json:"aqm_drops"`
	Restarts     uint64 `json:"restarts"`
	BreakerState string `json:"breaker_state"`

	// Durability fields, zero when journaling is disabled.
	WalSeq         uint64 `json:"wal_seq,omitempty"`
	WalDurableSeq  uint64 `json:"wal_durable_seq,omitempty"`
	WalRecovered   uint64 `json:"wal_recovered_seq,omitempty"`
	WalReplayed    uint64 `json:"wal_replayed,omitempty"`
	WalQuarantined uint64 `json:"wal_quarantined_bytes,omitempty"`
	WalRestores    uint64 `json:"wal_restores,omitempty"`
}

func (sh *shard) checkpoint(restarts uint64) shardCheckpoint {
	gets, sets := sh.store.Counts()
	return shardCheckpoint{
		ID:           sh.id,
		Core:         sh.core,
		Gets:         gets,
		Sets:         sets,
		Served:       sh.served.Load(),
		AQMDrops:     sh.aqmDrops.Load(),
		Restarts:     restarts,
		BreakerState: sh.breaker.State().String(),

		WalSeq:         sh.seqA.Load(),
		WalDurableSeq:  sh.durableSeqA.Load(),
		WalRecovered:   sh.recoveredSeqA.Load(),
		WalReplayed:    sh.walReplayedA.Load(),
		WalQuarantined: sh.walQuarantineA.Load(),
		WalRestores:    sh.restoresA.Load(),
	}
}
