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
)

// request is one admitted protocol request travelling to a shard worker.
type request struct {
	rank     uint64 // shard-local key rank
	isGet    bool
	class    int
	enqueued time.Time
	resp     chan respMsg  // buffered(1): the worker never blocks on reply
	tr       *obs.ReqTrace // nil unless the tracer sampled this request
}

// reqSlot is the request a connection reuses for every command it sends:
// the request with its reply channel, and the timer that bounds the wait
// for the worker. Between requests the timer is stopped and its channel
// empty. A slot whose wait timed out is never reused — the worker may
// still read the request and answer into resp — so the connection drops
// it and takes a fresh one.
type reqSlot struct {
	req   request
	timer *time.Timer
}

func newReqSlot() *reqSlot {
	t := time.NewTimer(time.Hour)
	t.Stop() // cannot have fired yet: nothing to drain
	return &reqSlot{req: request{resp: make(chan respMsg, 1)}, timer: t}
}

// respMsg is the worker's answer. ver/seq carry the key's version and the
// shard's write seqno for the verbose (setv/getv) protocol verbs; seq is
// zero when journaling is disabled.
type respMsg struct {
	cycles uint64
	ver    uint64
	seq    uint64
	err    error
	silent bool // injected NIC drop: reply with nothing at all
}

// shard is one worker-owned slice of the keyspace: its own simulated
// machine, its own slice-aware store pinned to core sh.core of that
// machine, a bounded inbox, an AQM on that inbox, a circuit breaker
// guarding dispatch, and an optional fault injector. The pinning is the
// model's: the host goroutine is an ordinary one, because locking it to an
// OS thread would buy the simulated core nothing and cost every request a
// cross-thread futex wake. Only the worker goroutine touches
// machine/store/aqm/injector; everything the connection handlers read is
// a channel, an atomic, or the SyncBreaker.
type shard struct {
	id    int
	core  int
	keys  uint64 // store keyspace size
	cfg   config // kept for rebuilding the store on warm restart
	store *kvs.Store
	inbox chan *request

	breaker *overload.SyncBreaker
	aqm     overload.AQM

	injMu    sync.Mutex
	injector *faults.Injector

	crash atomic.Bool // next request panics the worker (chaos crash)

	served   atomic.Uint64
	aqmDrops atomic.Uint64

	// Durability. vers is the per-key version table (always maintained —
	// one increment per SET); jr is the write journal, nil when -wal-dir is
	// unset, and then the SET path pays exactly one nil check (the wal
	// nil-is-free contract). vers/jr/seq/setsSinceSnap/inFlight are
	// worker-owned: the worker loop, the restore hook, and drain-time
	// closeWAL all run sequenced on or after the supervision goroutine.
	// The atomics below mirror journal state for stats/metrics read from
	// other goroutines.
	vers          []uint64
	jr            *wal.Journal
	seq           uint64
	setsSinceSnap int
	flushEvery    time.Duration
	flushRecs     int
	snapEvery     int

	// The committer: one goroutine per open journal, which runs commit
	// (the write + fsync) on each batch the worker detaches. commitC
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

	// sojournBits holds the float64 bits of an EWMA of queue wait (ns).
	// The worker is the writer on every dequeue; the pressure ticker
	// decays it while the queue is idle; admission reads it. Occupancy
	// alone is blind to closed-loop overload — a handful of connections
	// can queue milliseconds of work in a nearly-empty inbox — so queue
	// delay is the daemon's primary pressure signal, as in CoDel.
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
		id:         id,
		core:       core,
		keys:       cfg.keysPerShard(),
		cfg:        cfg,
		store:      store,
		inbox:      make(chan *request, cfg.inbox),
		breaker:    breaker,
		start:      start,
		freq:       freq,
		vers:       make([]uint64, cfg.keysPerShard()),
		flushEvery: cfg.walFlushEvery,
		flushRecs:  cfg.walFlushRecs,
		snapEvery:  cfg.walSnapEvery,
		commit:     (*wal.Journal).Commit,
		logf:       log.Printf,
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
// worker starts — single-threaded, like every other store access.
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

// run is the supervised worker loop: one goroutine, the only one that
// touches the shard's simulated machine. When the shard journals, the
// loop also owns the group-commit clock: a flush ticker bounds how long
// an acked SET can sit in the buffered tail. Stopping commits the tail
// and waits for it.
func (sh *shard) run(stop <-chan struct{}) error {
	var flushC <-chan time.Time
	if sh.jr != nil && sh.flushEvery > 0 {
		t := time.NewTicker(sh.flushEvery)
		defer t.Stop()
		flushC = t.C
	}
	for {
		select {
		case <-stop:
			sh.flushWAL()
			sh.waitCommit()
			return nil
		case <-flushC:
			sh.flushWAL()
		case req := <-sh.inbox:
			sh.serve(req)
			sh.drainBurst()
		}
	}
}

// serveBurst bounds how many queued requests one wakeup services — the
// daemon analogue of the PMD's RX burst of 32. Bounded so a saturated
// inbox cannot starve the stop signal or the group-commit flush ticker.
const serveBurst = 32

// drainBurst services whatever is already queued behind the request that
// woke the worker, up to one burst, before returning to the select. Under
// load this amortizes the scheduler round-trip per request the same way
// the simulator's batch path amortizes per-packet dispatch.
func (sh *shard) drainBurst() {
	for n := 1; n < serveBurst; n++ {
		select {
		case req := <-sh.inbox:
			sh.serve(req)
		default:
			return
		}
	}
}

// flushWAL is the worker's half of the group commit: detach the buffered
// records and hand them to the committer, which does the write + fsync.
// At most one batch is in flight, so if the previous one is still
// committing this waits for it — the only time the worker waits on the
// disk. Worker-goroutine only (or sequenced after it: restore/drain).
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
// the journal. The worker is down, so the caller owns the journal.
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
// runs at boot (before workers start) and inside the warm-restart hook —
// both sequenced against the worker loop.
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
// supervision goroutine while the worker is down (ladder floor pinned),
// before the worker restarts.
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
// close, stopping the committer. Called after the supervisor stopped, so
// single ownership has passed to the draining goroutine.
func (sh *shard) closeWAL() {
	if sh.jr == nil {
		return
	}
	sh.flushWAL()
	sh.snapshotWAL()
	sh.closeJournal()
}

// sojournEwma reads the smoothed queue-wait estimate in nanoseconds.
func (sh *shard) sojournEwma() float64 {
	return math.Float64frombits(sh.sojournBits.Load())
}

// decaySojourn relaxes the estimate toward zero — called by the pressure
// ticker while the inbox is empty, so a burst's ghost does not keep
// shedding an idle shard.
func (sh *shard) decaySojourn() {
	old := sh.sojournEwma()
	if old > 0 {
		sh.sojournBits.Store(math.Float64bits(old * 0.8))
	}
}

// serve executes one request on the shard's simulated machine. Trace
// stage stamps are written from this goroutine while the connection
// handler may be timing out on the other side — they are atomic stores,
// so the race is benign (the handler just misses late stages).
func (sh *shard) serve(req *request) {
	req.tr.StageEnd(obs.StageInboxWait)
	req.tr.StageStart(obs.StageShardService)
	now := time.Now()
	sojournNs := float64(now.Sub(req.enqueued).Nanoseconds())
	sh.sojournBits.Store(math.Float64bits(sh.sojournEwma()*0.875 + sojournNs*0.125))
	if sh.aqm != nil {
		nowNs := float64(now.Sub(sh.start).Nanoseconds())
		if err := sh.aqm.Admit(nowNs, len(sh.inbox)+1, cap(sh.inbox), sojournNs); err != nil {
			sh.aqmDrops.Add(1)
			req.tr.StageEnd(obs.StageShardService)
			req.resp <- respMsg{err: errAQM}
			return
		}
	}

	inj := sh.getInjector()
	if inj.Fire(faults.NICDrop) {
		// A lost packet answers with nothing — the client's timeout/retry
		// path is the thing this fault exists to exercise.
		req.tr.StageEnd(obs.StageShardService)
		req.resp <- respMsg{silent: true}
		return
	}
	if inj.Fire(faults.NICCorrupt) {
		req.tr.StageEnd(obs.StageShardService)
		req.resp <- respMsg{err: errCorrupt}
		return
	}
	if sh.crash.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("slicekvsd: injected crash on shard %d", sh.id))
	}

	scale := inj.ServiceScale(sh.core)
	req.tr.StageStart(obs.StageStoreOp)
	cycles, err := sh.store.ServeOne(req.rank, req.isGet)
	req.tr.StageEnd(obs.StageStoreOp)
	if err != nil {
		req.tr.StageEnd(obs.StageShardService)
		req.resp <- respMsg{err: err}
		return
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
				req.tr.StageEnd(obs.StageShardService)
				req.resp <- respMsg{err: fmt.Errorf("journal write failed (retryable)")}
				return
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
	req.tr.StageEnd(obs.StageShardService)
	req.resp <- respMsg{cycles: cycles, ver: ver, seq: sh.seq}
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
