package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sliceaware/internal/daemon"
	"sliceaware/internal/faults"
	"sliceaware/internal/obs"
	"sliceaware/internal/overload"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/wal"
)

// config carries every slicekvsd knob. Durations are wall-clock: the
// daemon lives outside the simulated machine, only ServeOne runs inside.
type config struct {
	addr     string // memcached-protocol listener
	httpAddr string // health + metrics sidecar ("" disables)

	shards     int
	keys       uint64
	sliceAware bool
	warmup     int // per-shard warm-up GETs before ready

	connsMax int // concurrent connection cap (backlog bound)
	inbox    int // max requests waiting per shard for its lock
	classes  int // priority classes (0 lowest .. classes-1 highest)

	readTimeout    time.Duration // per-read deadline (idle cutoff)
	writeTimeout   time.Duration // per-flush deadline
	requestTimeout time.Duration // bound on a request's wait for its shard's lock
	drainTimeout   time.Duration // bound on waiting out in-flight requests
	lameDuck       time.Duration // linger in draining so probes observe it

	breakerCooldown time.Duration
	aqm             string // codel | red | none
	aqmTarget       time.Duration
	aqmInterval     time.Duration

	fullSojourn   time.Duration // queue wait regarded as pressure 1.0
	tick          time.Duration // pressure-sampling period
	escalateAfter int           // ladder: high-pressure ticks before escalating
	recoverAfter  int           // ladder: calm ticks before recovering

	checkpoint string // drain checkpoint path ("" disables)

	// Durability. walDir enables per-shard journaling + snapshots; the
	// loss window for acked writes is the buffered tail plus at most one
	// batch being committed: ≤ 2 × walFlushRecs records, or walFlushEvery
	// wall time plus one fsync.
	walDir         string
	walFlushEvery  time.Duration // group-commit flush interval
	walFlushRecs   int           // group-commit record threshold
	walSnapEvery   int           // SETs between snapshots (0 = only at drain)
	restartBackoff time.Duration // delay before a crashed shard is restored, doubling per crash

	// Observability. All off by default; when off, the request path pays
	// one nil-check branch per instrumentation point and zero allocations
	// (the obs nil-is-free contract).
	sinkAddr    string        // statsink address ("" disables streaming)
	statsTick   time.Duration // wide-event snapshot period
	traceSample int           // trace one request in N (0 disables)
	traceOut    string        // chrome://tracing artifact written at drain
	pprofOn     bool          // mount net/http/pprof on the sidecar
	sloSpec     string        // SLO definitions (obs.ParseSLOs syntax)
	sloBurn     float64       // burn-rate alert threshold
	sloFast     time.Duration // fast burn-rate window
	sloSlow     time.Duration // slow burn-rate window
}

func defaultConfig() config {
	return config{
		addr:            "127.0.0.1:11211",
		httpAddr:        "127.0.0.1:9090",
		shards:          4,
		keys:            1 << 16,
		sliceAware:      true,
		warmup:          512,
		connsMax:        256,
		inbox:           128,
		classes:         overload.DefaultClasses,
		readTimeout:     60 * time.Second,
		writeTimeout:    5 * time.Second,
		requestTimeout:  2 * time.Second,
		drainTimeout:    10 * time.Second,
		lameDuck:        0,
		breakerCooldown: 50 * time.Millisecond,
		aqm:             "codel",
		aqmTarget:       500 * time.Microsecond,
		aqmInterval:     5 * time.Millisecond,
		fullSojourn:     time.Millisecond,
		tick:            10 * time.Millisecond,
		escalateAfter:   25,
		recoverAfter:    200,
		statsTick:       time.Second,
		walFlushEvery:   25 * time.Millisecond,
		walFlushRecs:    64,
		walSnapEvery:    8192,
		restartBackoff:  10 * time.Millisecond,
		sloBurn:         4,
		sloFast:         5 * time.Second,
		sloSlow:         time.Minute,
	}
}

func (c config) keysPerShard() uint64 {
	return (c.keys + uint64(c.shards) - 1) / uint64(c.shards)
}

func (c config) validate() error {
	if c.shards < 1 {
		return fmt.Errorf("slicekvsd: need ≥1 shard, got %d", c.shards)
	}
	if c.keys == 0 {
		return errors.New("slicekvsd: need a non-empty keyspace")
	}
	if c.connsMax < 1 || c.inbox < 1 {
		return errors.New("slicekvsd: connection and inbox bounds must be ≥1")
	}
	if c.classes < 1 {
		return fmt.Errorf("slicekvsd: need ≥1 priority class, got %d", c.classes)
	}
	if c.walDir != "" {
		if c.walFlushRecs < 1 {
			return fmt.Errorf("slicekvsd: wal flush threshold must be ≥1, got %d", c.walFlushRecs)
		}
		if c.walFlushEvery <= 0 {
			return errors.New("slicekvsd: wal flush interval must be positive")
		}
		if c.walSnapEvery < 0 {
			return errors.New("slicekvsd: wal snapshot period must be ≥0")
		}
	}
	return nil
}

// server owns the listener, the shards, the admission guard, and the
// lifecycle. Connection handlers are plain goroutines that serve each
// request themselves under its shard's lock. No shard has a goroutine of
// its own beyond its journal's committer: a crash reports to the
// supervisor, which restores the shard on a restart goroutine of its own,
// and one ticker group-commits every journaling shard.
type server struct {
	cfg    config
	start  time.Time
	lc     *daemon.Lifecycle
	sup    *daemon.Supervisor
	shards []*shard

	ln   net.Listener
	http *telemetry.MetricsServer

	// admitMu orders request admission against BeginDrain: admissions hold
	// it shared around the state check + reqWG.Add, drain holds it
	// exclusively while flipping state, so reqWG can never gain members
	// after the drain starts waiting on it.
	admitMu sync.RWMutex
	reqWG   sync.WaitGroup

	connSem   chan struct{}
	connWG    sync.WaitGroup
	connsMu   sync.Mutex
	conns     map[net.Conn]struct{}
	openConns atomic.Int64

	shedMu sync.Mutex
	shed   *overload.Shedder

	ladder      *overload.Ladder // owned by the pressure ticker goroutine
	ladderLevel atomic.Int32

	// The background loops — the pressure ticker, the stats loop and, with
	// -wal-dir, the group commit — run until loopStop closes.
	loopStop chan struct{}
	loops    sync.WaitGroup

	reg       *telemetry.Registry
	ctrConn   map[string]*telemetry.Counter
	ctrResp   []map[string]*telemetry.Counter // [class][outcome]
	ctrOps    map[string]*telemetry.Counter   // get/set per shard
	histLat   []*telemetry.Histogram          // [class], wall ns
	latBounds []float64                       // histLat bucket bounds

	// Observability: nil when the corresponding flag is off, and every
	// call through them is then a no-op (obs nil-is-free contract).
	tracer  *obs.Tracer
	sink    *obs.Client
	monitor *obs.Monitor

	drainOnce sync.Once
	logf      func(format string, args ...any)
}

// Response outcome labels, also the keys of ctrResp.
var outcomes = []string{
	"ok", "shed", "inbox_full", "aqm", "degraded", "breaker",
	"timeout", "draining", "injected", "dropped_silent", "error",
}

// errSilentDrop tells the connection handler to answer with nothing —
// an injected NIC drop looks like a lost packet, not a refusal.
var errSilentDrop = errors.New("slicekvsd: injected silent drop")

// newServer wires the shards, guards and metrics but opens no sockets.
func newServer(cfg config) (*server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &server{
		cfg:      cfg,
		start:    time.Now(),
		lc:       daemon.NewLifecycle(),
		connSem:  make(chan struct{}, cfg.connsMax),
		conns:    make(map[net.Conn]struct{}),
		loopStop: make(chan struct{}),
		logf:     log.Printf,
	}

	for i := 0; i < cfg.shards; i++ {
		sh, err := newShard(i, cfg, s.start)
		if err != nil {
			return nil, err
		}
		// Late-bound so tests that swap s.logf capture shard logs too.
		sh.logf = func(format string, args ...any) { s.logf(format, args...) }
		sh.fail = func(cause error) { s.sup.Fail(sh.id, cause) }
		s.shards = append(s.shards, sh)
	}

	// Daemon-side shed thresholds: the defaults are tuned for the
	// simulator's RX rings; a daemon shard queue runs hotter, so class 0
	// holds until a quarter of full pressure and the top class until
	// nearly saturated. Pressure is the worse of queue occupancy (waiters
	// over -inbox) and the lock-wait EWMA normalized by fullSojourn.
	shed, err := overload.NewShedder(overload.ShedConfig{
		Classes: cfg.classes, BaseFrac: 0.25, MaxFrac: 0.95,
		FullSojournNs: float64(cfg.fullSojourn.Nanoseconds()),
	})
	if err != nil {
		return nil, err
	}
	s.shed = shed

	ladder, err := overload.NewLadder(overload.LadderConfig{
		EscalateAfter: cfg.escalateAfter,
		RecoverAfter:  cfg.recoverAfter,
	})
	if err != nil {
		return nil, err
	}
	s.ladder = ladder

	s.sup = daemon.NewSupervisor(daemon.SupervisorConfig{
		BackoffBase: cfg.restartBackoff,
		OnStateChange: func(id int, up bool, restarts int, err error) {
			if up {
				s.logf("slicekvsd: shard %d back up (restart %d)", id, restarts)
			} else {
				s.logf("slicekvsd: shard %d down: %v", id, err)
			}
		},
	})

	s.initMetrics()

	if cfg.traceSample > 0 {
		s.tracer = obs.NewTracer(obs.TracerConfig{
			SampleEvery: cfg.traceSample,
			Registry:    s.reg,
			MetricName:  "slicekvsd_request_stage_ns",
		})
	}
	slos, err := obs.ParseSLOs(cfg.sloSpec, cfg.classes)
	if err != nil {
		return nil, err
	}
	s.monitor, err = obs.NewMonitor(obs.MonitorConfig{
		SLOs:          slos,
		Tick:          cfg.statsTick,
		FastWindow:    cfg.sloFast,
		SlowWindow:    cfg.sloSlow,
		BurnThreshold: cfg.sloBurn,
		Registry:      s.reg,
		MetricPrefix:  "slicekvsd",
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// initMetrics builds the daemon's own registry. The shards' simulated
// machines register no export-time callbacks here: their internals are
// single-threaded and only quiesce after drain, so everything exported
// live is an atomic mirror maintained on the daemon side.
func (s *server) initMetrics() {
	s.reg = telemetry.NewRegistry(s.cfg.shards)

	s.ctrConn = map[string]*telemetry.Counter{}
	for _, o := range []string{"accepted", "refused_backlog", "refused_draining", "closed"} {
		s.ctrConn[o] = s.reg.CounterL("slicekvsd_connections_total",
			"Connection lifecycle events by outcome", fmt.Sprintf("outcome=%q", o))
	}
	s.ctrResp = make([]map[string]*telemetry.Counter, s.cfg.classes)
	s.histLat = make([]*telemetry.Histogram, s.cfg.classes)
	for c := 0; c < s.cfg.classes; c++ {
		s.ctrResp[c] = map[string]*telemetry.Counter{}
		for _, o := range outcomes {
			s.ctrResp[c][o] = s.reg.CounterL("slicekvsd_responses_total",
				"Request responses by class and outcome",
				fmt.Sprintf("class=%q,outcome=%q", strconv.Itoa(c), o))
		}
		// 4 µs .. ~1 s in doubling buckets: wall-clock service latency.
		// The stats loop deltas these per tick, so latBounds is kept for
		// quantile and SLO-violation math over the bucket counts.
		s.latBounds = telemetry.ExpBuckets(4096, 2, 18)
		s.histLat[c] = s.reg.HistogramL("slicekvsd_request_latency_ns",
			"Wall-clock request latency by class",
			fmt.Sprintf("class=%q", strconv.Itoa(c)), s.latBounds)
	}
	s.ctrOps = map[string]*telemetry.Counter{
		"get": s.reg.CounterL("slicekvsd_requests_total", "Requests dispatched by op", `op="get"`),
		"set": s.reg.CounterL("slicekvsd_requests_total", "Requests dispatched by op", `op="set"`),
	}

	s.reg.GaugeFunc("slicekvsd_state", "Lifecycle state (0 starting, 1 ready, 2 draining, 3 stopped, 4 recovering)", "",
		func() float64 { return float64(s.lc.State()) })
	s.reg.GaugeFunc("slicekvsd_ladder_level", "Degradation ladder level", "",
		func() float64 { return float64(s.ladderLevel.Load()) })
	s.reg.GaugeFunc("slicekvsd_shards_down", "Shards currently down", "",
		func() float64 { return float64(s.sup.Down()) })
	s.reg.GaugeFunc("slicekvsd_open_connections", "Connections currently served", "",
		func() float64 { return float64(s.openConns.Load()) })
	for _, sh := range s.shards {
		sh := sh
		lbl := fmt.Sprintf("shard=%q", strconv.Itoa(sh.id))
		s.reg.GaugeFunc("slicekvsd_shard_inbox", "Requests waiting per shard for its lock", lbl,
			func() float64 { return float64(sh.waiters.Load()) })
		s.reg.GaugeFunc("slicekvsd_shard_served", "Requests served per shard", lbl,
			func() float64 { return float64(sh.served.Load()) })
		if s.cfg.walDir != "" {
			s.reg.GaugeFunc("slicekvsd_wal_pending_records", "Acked SETs not yet durable (buffered or in flight)", lbl,
				func() float64 { return float64(sh.walPending()) })
			s.reg.GaugeFunc("slicekvsd_wal_flush_lag_seconds", "Age of the oldest acked SET not yet durable", lbl,
				func() float64 { return sh.walFlushLag().Seconds() })
			s.reg.GaugeFunc("slicekvsd_wal_durable_seq", "Last fsynced write seqno", lbl,
				func() float64 { return float64(sh.durableSeqA.Load()) })
			s.reg.GaugeFunc("slicekvsd_wal_recovered_seq", "Seqno recovery rebuilt through at last boot/restart", lbl,
				func() float64 { return float64(sh.recoveredSeqA.Load()) })
			s.reg.GaugeFunc("slicekvsd_wal_replayed_records", "Journal records replayed by recoveries", lbl,
				func() float64 { return float64(sh.walReplayedA.Load()) })
			s.reg.GaugeFunc("slicekvsd_wal_quarantined_bytes", "Journal bytes quarantined as corrupt", lbl,
				func() float64 { return float64(sh.walQuarantineA.Load()) })
			s.reg.GaugeFunc("slicekvsd_shard_restores", "Warm restarts completed per shard", lbl,
				func() float64 { return float64(sh.restoresA.Load()) })
		}
	}
}

// wallNs is the breaker clock: monotonic wall nanoseconds since start.
func (s *server) wallNs() float64 {
	return float64(time.Since(s.start).Nanoseconds())
}

// Serve opens the sockets, warms and starts the shards, and flips the
// lifecycle to ready. It returns once the daemon is serving.
func (s *server) Serve() error {
	ln, err := net.Listen("tcp", s.cfg.addr)
	if err != nil {
		return err
	}
	s.ln = ln

	if s.cfg.httpAddr != "" {
		mux := daemon.Mux(s.lc, s.sup, telemetry.MetricsHandler(s.reg))
		if s.cfg.pprofOn {
			daemon.AttachPprof(mux)
		}
		srv, err := telemetry.StartMetricsServer(s.cfg.httpAddr, mux)
		if err != nil {
			ln.Close()
			return err
		}
		s.http = srv
	}

	// Warm before serving: the stores are still single-owner.
	for _, sh := range s.shards {
		if err := sh.warm(s.cfg.warmup); err != nil {
			s.shutdownSockets()
			return err
		}
	}

	// Recover every shard's durable state before readiness: the sidecar is
	// already answering /readyz 503 "recovering", so a load balancer never
	// routes to a half-replayed store. A drain signal racing boot skips
	// recovery — the daemon is on its way down anyway.
	if s.cfg.walDir != "" && s.lc.BeginRecovery() == nil {
		for _, sh := range s.shards {
			rep, err := sh.recoverState()
			if err != nil {
				s.shutdownSockets()
				return fmt.Errorf("slicekvsd: shard %d recovery: %w", sh.id, err)
			}
			s.logf("slicekvsd: shard %d recovered: snapshot(seq %d loaded=%v corrupt=%v) + %d replayed → seq %d (skipped %d, torn %dB, quarantined %dB)",
				sh.id, rep.SnapshotSeq, rep.SnapshotLoaded, rep.SnapshotCorrupt,
				rep.Replayed, sh.seq, rep.SkippedOld, rep.TornBytes, rep.Quarantined)
			if rep.Corrupt != nil {
				s.logf("slicekvsd: shard %d journal damage: %v", sh.id, rep.Corrupt)
			}
		}
	}

	// A crashed shard is restored (when it journals) while its lock stays
	// held from the crash, and resumed by releasing that lock.
	for _, sh := range s.shards {
		var restore daemon.RestoreFunc
		if s.cfg.walDir != "" {
			restore = sh.restore
		}
		s.sup.Add(sh.id, fmt.Sprintf("shard-%d", sh.id), restore, sh.unlock)
	}
	if s.cfg.walDir != "" {
		s.loops.Add(1)
		go s.groupCommit()
	}

	if s.cfg.sinkAddr != "" {
		s.sink = obs.DialSink(s.cfg.sinkAddr, "slicekvsd")
	}
	s.loops.Add(2)
	go s.pressureTick()
	go s.statsLoop()
	go s.acceptLoop()

	if err := s.lc.SetReady(); err != nil {
		// A signal raced boot and drained us already; Serve still
		// succeeded, Drain will finish the job.
		return nil
	}
	s.logf("slicekvsd: ready on %s (%d shards, %d keys, slice-aware=%v)",
		ln.Addr(), s.cfg.shards, s.cfg.keys, s.cfg.sliceAware)
	return nil
}

func (s *server) shutdownSockets() {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.http != nil {
		s.http.Close()
	}
}

// Addr returns the protocol listener address (tests bind port 0).
func (s *server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the sidecar address, "" when disabled.
func (s *server) HTTPAddr() string {
	if s.http == nil {
		return ""
	}
	return s.http.Addr().String()
}

// pressureTick samples shard queue occupancy into the degradation ladder
// and pins the ladder floor while any shard is down. The ticker goroutine
// is the ladder's single owner.
func (s *server) pressureTick() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.tick)
	defer t.Stop()
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
			var pressure float64
			for _, sh := range s.shards {
				if sh.waiters.Load() == 0 {
					sh.decaySojourn()
				}
				occ := sh.occupancy()
				sj := sh.sojournEwma() / float64(s.cfg.fullSojourn.Nanoseconds())
				if occ > pressure {
					pressure = occ
				}
				if sj > pressure {
					pressure = sj
				}
			}
			if pressure > 1 {
				pressure = 1
			}
			if s.sup.Down() > 0 {
				s.ladder.SetFloor(1)
			} else {
				s.ladder.SetFloor(0)
			}
			s.ladderLevel.Store(int32(s.ladder.Observe(pressure)))
		}
	}
}

// groupCommit is the timed half of every journaling shard's group commit:
// each -wal-flush-every it takes each shard's lock in turn, behind the
// requests already waiting, and flushes the buffered tail, so an acked SET
// sits in memory at most about one period. Each wait is bounded by one
// period: a shard whose lock stays held (down after a crash, or a wedged
// holder) delays the others by at most one tick and is retried next tick.
func (s *server) groupCommit() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.walFlushEvery)
	defer t.Stop()
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
		}
		for _, sh := range s.shards {
			select {
			case sh.lock <- struct{}{}:
				sh.flushWAL()
				sh.unlock()
			case <-time.After(s.cfg.walFlushEvery):
			case <-s.loopStop:
				return
			}
		}
	}
}

// acceptLoop admits connections up to the backlog bound; excess callers
// get an immediate retryable refusal instead of a silent SYN queue.
func (s *server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain complete
		}
		select {
		case s.connSem <- struct{}{}:
		default:
			s.ctrConn["refused_backlog"].Inc(0)
			refuseConn(conn, s.cfg.writeTimeout, "SERVER_ERROR overloaded: connection backlog full (retryable)")
			continue
		}
		s.ctrConn["accepted"].Inc(0)
		s.trackConn(conn, true)
		s.openConns.Add(1)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

func refuseConn(conn net.Conn, d time.Duration, msg string) {
	conn.SetWriteDeadline(time.Now().Add(d))
	io.WriteString(conn, msg+"\r\n")
	conn.Close()
}

func (s *server) trackConn(conn net.Conn, add bool) {
	s.connsMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	s.connsMu.Unlock()
}

func (s *server) closeConns() {
	s.connsMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connsMu.Unlock()
}

// connState is what a connection handler carries from one request to the
// next, so that the admitted path allocates nothing per request: the
// buffered reader and writer, the priority class `prio` selected, the
// timer that bounds a wait for a shard lock, and scratch for building
// replies.
type connState struct {
	br    *bufio.Reader
	bw    *bufio.Writer
	class int
	timer *time.Timer
	out   []byte // reply scratch
	hits  []hit  // keys a get has been granted so far
}

// hit is one granted key of a get. key aliases the command line in br's
// buffer, which stays valid because a get reads nothing more.
type hit struct {
	key  []byte
	rank uint64
}

func newConnState(r io.Reader, w io.Writer) *connState {
	return &connState{br: bufio.NewReader(r), bw: bufio.NewWriter(w), timer: stoppedTimer()}
}

// handleConn owns one accepted connection's bookkeeping around serveConn.
func (s *server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.trackConn(conn, false)
		s.openConns.Add(-1)
		<-s.connSem
		s.ctrConn["closed"].Inc(0)
		s.connWG.Done()
	}()

	if s.lc.State() != daemon.StateReady {
		s.ctrConn["refused_draining"].Inc(0)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
		io.WriteString(conn, "SERVER_ERROR "+errDraining.Error()+"\r\n")
		return
	}
	s.serveConn(conn)
}

// serveConn speaks the memcached text protocol on one connection until
// the peer quits, errs, or the daemon stops being ready.
func (s *server) serveConn(conn net.Conn) {
	c := newConnState(conn, conn)
	for {
		// A connection that outlives readiness is told to go away as soon
		// as its current request cycle finishes.
		if s.lc.State() != daemon.StateReady {
			writeErr(c.bw, errDraining)
			conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
			c.bw.Flush()
			return
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
		line, err := readLine(c.br)
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				c.bw.WriteString("CLIENT_ERROR line too long\r\n")
				conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
				c.bw.Flush()
			}
			return
		}
		quit, tr := s.dispatch(c, line)
		// The reply-write stage is the socket flush: serialization into bw
		// is buffered and negligible, the flush is where the wall time goes.
		tr.StageStart(obs.StageReplyWrite)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.writeTimeout))
		ferr := c.bw.Flush()
		tr.StageEnd(obs.StageReplyWrite)
		s.tracer.Finish(tr)
		if ferr != nil || quit {
			return
		}
	}
}

// readLine returns one protocol line without its CRLF. The bytes are br's
// own buffer and die at the next read. br's size (4 KiB) is the bound: a
// longer line is bufio.ErrBufferFull before any more of it is buffered.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

func isSpace(c byte) bool { return c == ' ' || (c >= '\t' && c <= '\r') }

// nextField splits the first whitespace-separated field off line, in
// place; an empty field means line had none left.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}

// dispatch executes one command line. It returns true when the
// connection should close after the pending flush, plus the request's
// span record when the tracer sampled it (nil otherwise — the caller
// owns finishing it after the flush). The key-value verbs parse line in
// place; the rest are rare enough to go through strings.
func (s *server) dispatch(c *connState, line []byte) (bool, *obs.ReqTrace) {
	verb, args := nextField(line)
	switch string(verb) {
	case "": // blank line: no reply
	case "get", "gets":
		tr := s.tracer.Begin("get", c.class)
		tr.StageStart(obs.StageParse)
		s.cmdGet(c, args, tr)
		return false, tr
	case "set", "setv":
		// setv is the verbose SET for durability verification: the ack
		// carries the shard, write seqno and resulting version, so a
		// client-side ledger can check acked writes against recovered state.
		tr := s.tracer.Begin("set", c.class)
		tr.StageStart(obs.StageParse)
		return s.cmdSet(c, args, tr, string(verb) == "setv"), tr
	case "getv":
		tr := s.tracer.Begin("get", c.class)
		tr.StageStart(obs.StageParse)
		s.cmdGetV(c, args, tr)
		return false, tr
	case "prio":
		fields := strings.Fields(string(args))
		if len(fields) != 1 {
			c.bw.WriteString("CLIENT_ERROR usage: prio <class>\r\n")
			return false, nil
		}
		class, err := strconv.Atoi(fields[0])
		if err != nil || class < 0 || class >= s.cfg.classes {
			fmt.Fprintf(c.bw, "CLIENT_ERROR class must be 0..%d\r\n", s.cfg.classes-1)
			return false, nil
		}
		c.class = class
		c.bw.WriteString("OK\r\n")
	case "chaos":
		s.cmdChaos(strings.Fields(string(args)), c.bw)
	case "stats":
		s.cmdStats(c.bw)
	case "version":
		c.bw.WriteString("VERSION slicekvsd-0.8 (sliceaware)\r\n")
	case "quit":
		return true, nil
	default:
		c.bw.WriteString("ERROR\r\n")
	}
	return false, nil
}

// appendField appends a space and n to a reply line under construction.
func appendField(dst []byte, n uint64) []byte {
	return strconv.AppendUint(append(dst, ' '), n, 10)
}

// writeErr renders an admission error as a protocol error line.
func writeErr(bw *bufio.Writer, err error) {
	bw.WriteString("SERVER_ERROR ")
	bw.WriteString(err.Error())
	bw.WriteString("\r\n")
}

func (s *server) cmdGet(c *connState, keys []byte, tr *obs.ReqTrace) {
	tr.StageEnd(obs.StageParse)
	c.hits = c.hits[:0]
	for {
		var key []byte
		if key, keys = nextField(keys); len(key) == 0 {
			break
		}
		rank := s.keyRank(key)
		s.ctrOps["get"].Inc(int(rank % uint64(s.cfg.shards)))
		_, err := s.serveRequest(c, rank, true, tr)
		switch {
		case err == nil:
			c.hits = append(c.hits, hit{key, rank})
		case errors.Is(err, errSilentDrop):
			// A lost packet answers with nothing, END included: the
			// client's timeout owns this failure.
			return
		default:
			writeErr(c.bw, err)
			return
		}
	}
	if len(c.hits) == 0 {
		c.bw.WriteString("CLIENT_ERROR usage: get <key> [key...]\r\n")
		return
	}
	for _, h := range c.hits {
		out := append(append(c.out[:0], "VALUE "...), h.key...)
		out = strconv.AppendUint(append(out, " 0 "...), valueLen, 10)
		out = append(appendValue(append(out, "\r\n"...), h.rank), "\r\n"...)
		c.bw.Write(out)
		c.out = out
	}
	c.bw.WriteString("END\r\n")
}

// cmdSet parses `set <key> <flags> <exptime> <bytes>` plus the data
// block. The data block is consumed before any admission decision so the
// stream stays framed even when the request is refused. verbose is the
// setv variant: the ack reports shard, seqno and version.
func (s *server) cmdSet(c *connState, args []byte, tr *obs.ReqTrace, verbose bool) bool {
	key, args := nextField(args)
	_, args = nextField(args) // flags
	_, args = nextField(args) // exptime
	size, _ := nextField(args)
	if len(size) == 0 {
		c.bw.WriteString("CLIENT_ERROR usage: set <key> <flags> <exptime> <bytes>\r\n")
		return false
	}
	n, err := strconv.Atoi(string(size))
	if err != nil || n < 0 || n > 1<<20 {
		c.bw.WriteString("CLIENT_ERROR bad data chunk length\r\n")
		return true // framing unknown: close
	}
	// key dies with the command line at the data-block read: resolve it first.
	rank := s.keyRank(key)
	if _, err := c.br.Discard(n); err != nil {
		return true
	}
	tail, err := c.br.Peek(2)
	if err != nil {
		return true
	}
	if string(tail) != "\r\n" {
		c.bw.WriteString("CLIENT_ERROR bad data chunk\r\n")
		return true
	}
	c.br.Discard(2)
	tr.StageEnd(obs.StageParse) // parse includes the data-block read

	shard := rank % uint64(s.cfg.shards)
	s.ctrOps["set"].Inc(int(shard))
	r, err := s.serveRequest(c, rank, false, tr)
	switch {
	case err == nil && verbose:
		out := appendField(append(c.out[:0], "STORED"...), shard)
		c.out = append(appendField(appendField(out, r.seq), r.ver), "\r\n"...)
		c.bw.Write(c.out)
	case err == nil:
		c.bw.WriteString("STORED\r\n")
	case errors.Is(err, errSilentDrop):
	default:
		writeErr(c.bw, err)
	}
	return false
}

// cmdGetV answers `getv <key>` with `VER <key> <shard> <version>` — the
// read half of the durability-verification protocol. Every rank exists,
// so there is no miss case; version 0 means never written.
func (s *server) cmdGetV(c *connState, args []byte, tr *obs.ReqTrace) {
	tr.StageEnd(obs.StageParse)
	key, args := nextField(args)
	if extra, _ := nextField(args); len(key) == 0 || len(extra) != 0 {
		c.bw.WriteString("CLIENT_ERROR usage: getv <key>\r\n")
		return
	}
	rank := s.keyRank(key)
	shard := rank % uint64(s.cfg.shards)
	s.ctrOps["get"].Inc(int(shard))
	r, err := s.serveRequest(c, rank, true, tr)
	switch {
	case err == nil:
		out := append(append(c.out[:0], "VER "...), key...)
		c.out = append(appendField(appendField(out, shard), r.ver), "\r\n"...)
		c.bw.Write(c.out)
	case errors.Is(err, errSilentDrop):
	default:
		writeErr(c.bw, err)
	}
}

// keyRank maps a protocol key to a global key rank: "k<n>" keys map
// straight to rank n (preserving the Zipf popularity order the stores
// are laid out for), anything else hashes uniformly (FNV-1a).
func (s *server) keyRank(key []byte) uint64 {
	if len(key) > 1 && key[0] == 'k' {
		if n, err := strconv.ParseUint(string(key[1:]), 10, 64); err == nil {
			return n % s.cfg.keys
		}
	}
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h % s.cfg.keys
}

// valueLen is the size of every value body.
const valueLen = 64

// appendValue appends the value body synthesized for a rank: "rank=<n>;"
// padded with dots — deterministic, so clients can verify payload
// integrity.
func appendValue(dst []byte, rank uint64) []byte {
	end := len(dst) + valueLen
	dst = append(strconv.AppendUint(append(dst, "rank="...), rank, 10), ';')
	for len(dst) < end {
		dst = append(dst, '.')
	}
	return dst
}

// serveRequest runs one request through the admission guard and a shard:
// drain gate → priority shed → degradation ladder → per-shard breaker →
// runOnShard. On success the returned respMsg carries cycles plus the
// version/seqno the verbose verbs report.
func (s *server) serveRequest(c *connState, rank uint64, isGet bool, tr *obs.ReqTrace) (respMsg, error) {
	class := c.class
	sh := s.shards[rank%uint64(len(s.shards))]
	tr.SetShard(sh.id)

	tr.StageStart(obs.StageDrainGate)
	s.admitMu.RLock()
	if s.lc.State() != daemon.StateReady {
		s.admitMu.RUnlock()
		s.account(tr, class, "draining", 0)
		return respMsg{}, errDraining
	}
	s.reqWG.Add(1)
	s.admitMu.RUnlock()
	tr.StageEnd(obs.StageDrainGate)
	defer s.reqWG.Done()

	// Priority shed on queue occupancy and smoothed lock wait.
	tr.StageStart(obs.StageShed)
	occ := sh.occupancy()
	s.shedMu.Lock()
	admit := s.shed.Admit(class, s.shed.Pressure(occ, sh.sojournEwma()))
	s.shedMu.Unlock()
	tr.StageEnd(obs.StageShed)
	if !admit {
		s.account(tr, class, "shed", 0)
		return respMsg{}, errShed
	}

	// Degradation ladder: level 1 refuses writes below the top class,
	// level 2 serves only the top class.
	tr.StageStart(obs.StageLadder)
	top := s.cfg.classes - 1
	lvl := int(s.ladderLevel.Load())
	tr.StageEnd(obs.StageLadder)
	if (lvl >= 2 && class < top) || (lvl == 1 && !isGet && class < top) {
		s.account(tr, class, "degraded", 0)
		return respMsg{}, errDegraded
	}

	tr.StageStart(obs.StageBreaker)
	err := sh.breaker.Allow(s.wallNs())
	tr.StageEnd(obs.StageBreaker)
	if err != nil {
		s.account(tr, class, "breaker", 0)
		return respMsg{}, errBreaker
	}
	return s.runOnShard(c, sh, request{rank: rank / uint64(len(s.shards)), isGet: isGet, tr: tr})
}

// runOnShard is the admitted request's turn on its shard, on the calling
// connection goroutine: wait for the shard lock (bounded by -inbox waiters
// and requestTimeout), serve under it, and account the outcome to the
// breaker and the response counters.
func (s *server) runOnShard(c *connState, sh *shard, req request) (respMsg, error) {
	class, tr := c.class, req.tr
	req.enqueued = time.Now()
	tr.StageStart(obs.StageInboxWait)
	if err := sh.acquire(c.timer, s.cfg.requestTimeout); err != nil {
		if errors.Is(err, errInbox) {
			// The operation never ran; give the breaker slot back without
			// teaching the outcome window anything.
			sh.breaker.Cancel()
			s.account(tr, class, "inbox_full", 0)
		} else {
			// The lock stayed held past requestTimeout: the shard is wedged,
			// or down after a crash. A real dispatch failure the breaker
			// should see.
			sh.breaker.Record(s.wallNs(), false)
			s.account(tr, class, "timeout", 0)
		}
		return respMsg{}, err
	}
	tr.StageEnd(obs.StageInboxWait)
	tr.StageStart(obs.StageShardService)
	r := sh.exec(&req)
	tr.StageEnd(obs.StageShardService)
	switch {
	case r.silent:
		sh.breaker.Record(s.wallNs(), true) // the shard did its job
		s.account(tr, class, "dropped_silent", 0)
		return respMsg{}, errSilentDrop
	case errors.Is(r.err, errAQM):
		sh.breaker.Record(s.wallNs(), true)
		s.account(tr, class, "aqm", 0)
		return respMsg{}, r.err
	case errors.Is(r.err, errCorrupt):
		sh.breaker.Record(s.wallNs(), true)
		s.account(tr, class, "injected", 0)
		return respMsg{}, r.err
	case r.err != nil:
		sh.breaker.Record(s.wallNs(), false)
		s.account(tr, class, "error", 0)
		return respMsg{}, r.err
	default:
		sh.breaker.Record(s.wallNs(), true)
		s.account(tr, class, "ok", time.Since(req.enqueued))
		return r, nil
	}
}

// account counts one response, records the trace outcome, and for
// successes observes latency.
func (s *server) account(tr *obs.ReqTrace, class int, outcome string, latency time.Duration) {
	tr.SetOutcome(outcome)
	if class < 0 {
		class = 0
	}
	if class >= s.cfg.classes {
		class = s.cfg.classes - 1
	}
	s.ctrResp[class][outcome].Inc(0)
	if outcome == "ok" {
		s.histLat[class].Observe(0, float64(latency.Nanoseconds()))
	}
}

// cmdChaos arms, clears, or triggers faults:
//
//	chaos arm <seed> <kind:prob[:magnitude][,kind:prob...]>
//	chaos crash <shard>
//	chaos clear
//
// Each shard gets its own injector seeded seed+shardID, so a plan is
// reproducible per shard regardless of request interleaving.
func (s *server) cmdChaos(args []string, bw *bufio.Writer) {
	if len(args) == 0 {
		bw.WriteString("CLIENT_ERROR usage: chaos arm|crash|clear\r\n")
		return
	}
	switch args[0] {
	case "arm":
		if len(args) != 3 {
			bw.WriteString("CLIENT_ERROR usage: chaos arm <seed> <spec>\r\n")
			return
		}
		seed, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			bw.WriteString("CLIENT_ERROR bad seed\r\n")
			return
		}
		events, err := parseChaosSpec(args[2])
		if err != nil {
			fmt.Fprintf(bw, "CLIENT_ERROR %v\r\n", err)
			return
		}
		for _, sh := range s.shards {
			inj, err := faults.NewInjector(faults.Plan{Seed: seed + int64(sh.id), Events: events})
			if err != nil {
				fmt.Fprintf(bw, "CLIENT_ERROR %v\r\n", err)
				return
			}
			sh.setInjector(inj)
		}
		fmt.Fprintf(bw, "OK armed %d event(s) seed %d\r\n", len(events), seed)
	case "crash":
		if len(args) != 2 {
			bw.WriteString("CLIENT_ERROR usage: chaos crash <shard>\r\n")
			return
		}
		id, err := strconv.Atoi(args[1])
		if err != nil || id < 0 || id >= len(s.shards) {
			bw.WriteString("CLIENT_ERROR bad shard id\r\n")
			return
		}
		s.shards[id].crash.Store(true)
		bw.WriteString("OK\r\n")
	case "clear":
		for _, sh := range s.shards {
			sh.setInjector(nil)
		}
		bw.WriteString("OK\r\n")
	default:
		bw.WriteString("CLIENT_ERROR usage: chaos arm|crash|clear\r\n")
	}
}

// parseChaosSpec parses "kind:prob[:magnitude]" clauses joined by commas.
// Kinds: nic-drop, nic-corrupt, slowdown (magnitude = service-time
// multiplier, applied to every core).
func parseChaosSpec(spec string) ([]faults.Event, error) {
	var events []faults.Event
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(clause, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("clause %q: want kind:prob[:magnitude]", clause)
		}
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("clause %q: bad probability", clause)
		}
		e := faults.Event{Probability: prob, Core: -1}
		switch parts[0] {
		case "nic-drop":
			e.Kind = faults.NICDrop
		case "nic-corrupt":
			e.Kind = faults.NICCorrupt
		case "slowdown", "core-slowdown":
			e.Kind = faults.CoreSlowdown
			e.Magnitude = 2
		default:
			return nil, fmt.Errorf("clause %q: unknown kind (want nic-drop, nic-corrupt, slowdown)", clause)
		}
		if len(parts) >= 3 {
			mag, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("clause %q: bad magnitude", clause)
			}
			e.Magnitude = mag
		}
		events = append(events, e)
	}
	return events, nil
}

func (s *server) cmdStats(bw *bufio.Writer) {
	fmt.Fprintf(bw, "STAT uptime_seconds %.1f\r\n", time.Since(s.start).Seconds())
	fmt.Fprintf(bw, "STAT state %s\r\n", s.lc.State())
	fmt.Fprintf(bw, "STAT shards %d\r\n", len(s.shards))
	fmt.Fprintf(bw, "STAT shards_down %d\r\n", s.sup.Down())
	fmt.Fprintf(bw, "STAT ladder_level %d\r\n", s.ladderLevel.Load())
	fmt.Fprintf(bw, "STAT open_connections %d\r\n", s.openConns.Load())
	for _, sh := range s.shards {
		fmt.Fprintf(bw, "STAT shard%d_served %d\r\n", sh.id, sh.served.Load())
		fmt.Fprintf(bw, "STAT shard%d_inbox %d\r\n", sh.id, sh.waiters.Load())
		fmt.Fprintf(bw, "STAT shard%d_breaker %s\r\n", sh.id, sh.breaker.State())
		if s.cfg.walDir != "" {
			fmt.Fprintf(bw, "STAT shard%d_wal_seq %d\r\n", sh.id, sh.seqA.Load())
			fmt.Fprintf(bw, "STAT shard%d_wal_durable_seq %d\r\n", sh.id, sh.durableSeqA.Load())
			fmt.Fprintf(bw, "STAT shard%d_wal_recovered_seq %d\r\n", sh.id, sh.recoveredSeqA.Load())
			fmt.Fprintf(bw, "STAT shard%d_wal_replayed %d\r\n", sh.id, sh.walReplayedA.Load())
			fmt.Fprintf(bw, "STAT shard%d_wal_quarantined %d\r\n", sh.id, sh.walQuarantineA.Load())
			fmt.Fprintf(bw, "STAT shard%d_restores %d\r\n", sh.id, sh.restoresA.Load())
		}
	}
	s.shedMu.Lock()
	offered, shed := s.shed.Stats()
	s.shedMu.Unlock()
	for c := range offered {
		fmt.Fprintf(bw, "STAT class%d_offered %d\r\n", c, offered[c])
		fmt.Fprintf(bw, "STAT class%d_shed %d\r\n", c, shed[c])
	}
	bw.WriteString("END\r\n")
}

// checkpoint is the drain-time state dump: enough to audit what the
// daemon did with the traffic it was given.
type checkpointDoc struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Transitions   []string          `json:"transitions"`
	Shards        []shardCheckpoint `json:"shards"`
	ShedOffered   []uint64          `json:"shed_offered_by_class"`
	ShedShed      []uint64          `json:"shed_shed_by_class"`
	Ladder        struct {
		Level       int    `json:"final_level"`
		Escalations uint64 `json:"escalations"`
		Recoveries  uint64 `json:"recoveries"`
	} `json:"ladder"`
	Workers []daemon.WorkerStatus `json:"workers"`
}

// Drain runs the graceful-shutdown sequence: stop admitting, wait out
// in-flight requests (bounded), linger lame-duck, close sockets, stop the
// supervisor and the group commit, close the journals, checkpoint, stop.
// Idempotent; extra calls wait via Done.
func (s *server) Drain() {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		began := s.lc.BeginDrain()
		s.admitMu.Unlock()
		if !began && s.lc.State() != daemon.StateDraining {
			return
		}
		s.logf("slicekvsd: draining (in-flight bound %s, lame-duck %s)", s.cfg.drainTimeout, s.cfg.lameDuck)

		flushed := make(chan struct{})
		go func() { s.reqWG.Wait(); close(flushed) }()
		select {
		case <-flushed:
		case <-time.After(s.cfg.drainTimeout):
			s.logf("slicekvsd: drain timeout: abandoning stragglers")
		}
		if s.cfg.lameDuck > 0 {
			time.Sleep(s.cfg.lameDuck)
		}

		if s.ln != nil {
			s.ln.Close()
		}
		s.closeConns()
		s.connWG.Wait()
		close(s.loopStop)
		s.loops.Wait()
		s.sup.Stop()

		// Every connection, restart and the group commit have ended:
		// closeWAL's lock is uncontended, or still held from a crash when
		// the shard is down. Flush the tails, snapshot, close — a clean
		// shutdown leaves a zero-length replay for the next boot.
		for _, w := range s.sup.Snapshot() {
			s.shards[w.ID].closeWAL(!w.Up)
		}

		s.lc.SetStopped()
		if s.cfg.checkpoint != "" {
			if err := s.writeCheckpoint(s.cfg.checkpoint); err != nil {
				s.logf("slicekvsd: checkpoint: %v", err)
			}
		}
		if s.cfg.traceOut != "" && s.tracer != nil {
			if err := s.writeTraceFile(s.cfg.traceOut); err != nil {
				s.logf("slicekvsd: trace-out: %v", err)
			} else {
				s.logf("slicekvsd: wrote %d sampled traces to %s (chrome://tracing)",
					s.tracer.Sampled(), s.cfg.traceOut)
			}
		}
		if s.sink != nil {
			s.sink.Send(obs.WideEvent{Kind: obs.KindFinal, Num: map[string]float64{
				"uptime_seconds": time.Since(s.start).Seconds(),
				"trace_sampled":  float64(s.tracer.Sampled()),
				"slo_fired":      float64(s.monitor.FiredTotal()),
			}})
			s.sink.Close()
		}
		if s.http != nil {
			s.http.Close()
		}
		s.logf("slicekvsd: stopped")
	})
	<-s.lc.Done()
}

// writeCheckpoint dumps the drain checkpoint. Called once nothing serves
// any more, so reading the stores without their locks is safe.
func (s *server) writeCheckpoint(path string) error {
	var doc checkpointDoc
	doc.UptimeSeconds = time.Since(s.start).Seconds()
	for _, st := range s.lc.Transitions() {
		doc.Transitions = append(doc.Transitions, st.String())
	}
	doc.Workers = s.sup.Snapshot() // one per shard, in shard order
	for _, w := range doc.Workers {
		doc.Shards = append(doc.Shards, s.shards[w.ID].checkpoint(w.Restarts))
	}
	s.shedMu.Lock()
	doc.ShedOffered, doc.ShedShed = s.shed.Stats()
	s.shedMu.Unlock()
	doc.Ladder.Level = int(s.ladderLevel.Load())
	st := s.ladder.Stats()
	doc.Ladder.Escalations = st.Escalations
	doc.Ladder.Recoveries = st.Recoveries

	// Atomic replace: a crash mid-checkpoint must leave the previous
	// checkpoint (or none), never a torn JSON document a post-mortem
	// script chokes on.
	return wal.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

// writeTraceFile dumps the retained sampled traces as a chrome://tracing
// file. Called at drain, once nothing serves any more.
func (s *server) writeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
