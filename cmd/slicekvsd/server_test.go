package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sliceaware/internal/wal"
)

// testConfig is a small, fast server for in-process tests.
func testConfig() config {
	cfg := defaultConfig()
	cfg.addr = "127.0.0.1:0"
	cfg.httpAddr = "127.0.0.1:0"
	cfg.shards = 2
	cfg.keys = 1 << 10
	cfg.warmup = 8
	cfg.requestTimeout = 30 * time.Second
	cfg.drainTimeout = 30 * time.Second
	return cfg
}

func startServer(t *testing.T, cfg config) *server {
	t.Helper()
	return startServerWith(t, cfg, nil)
}

// startServerWith is startServer with a hook that runs on the built
// server before it serves — where a test swaps a shard's commit function.
func startServerWith(t *testing.T, cfg config, before func(*server)) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.logf = t.Logf
	if before != nil {
		before(s)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

// client is a tiny blocking protocol client for tests.
type client struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *client) send(line string) {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, line+"\r\n"); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
}

func (c *client) line() string {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	l, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(l, "\r\n")
}

// get issues a single-key GET and returns the response lines up to END
// or an error line.
func (c *client) get(key string) []string {
	c.t.Helper()
	c.send("get " + key)
	var lines []string
	for {
		l := c.line()
		lines = append(lines, l)
		if l == "END" || strings.HasPrefix(l, "SERVER_ERROR") || strings.HasPrefix(l, "CLIENT_ERROR") || l == "ERROR" {
			return lines
		}
	}
}

func (c *client) set(key, val string) string {
	c.t.Helper()
	c.send(fmt.Sprintf("set %s 0 0 %d", key, len(val)))
	if _, err := io.WriteString(c.conn, val+"\r\n"); err != nil {
		c.t.Fatalf("set body: %v", err)
	}
	return c.line()
}

// setv issues a verbose SET and returns the STORED reply fields.
func (c *client) setv(key, val string) string {
	c.t.Helper()
	c.send(fmt.Sprintf("setv %s 0 0 %d", key, len(val)))
	if _, err := io.WriteString(c.conn, val+"\r\n"); err != nil {
		c.t.Fatalf("setv body: %v", err)
	}
	return c.line()
}

// stats fetches the stats verb into a map.
func (c *client) stats() map[string]string {
	c.t.Helper()
	c.send("stats")
	m := map[string]string{}
	for {
		l := c.line()
		if l == "END" {
			return m
		}
		if f := strings.Fields(l); len(f) == 3 && f[0] == "STAT" {
			m[f[1]] = f[2]
		}
	}
}

func TestProtocolBasics(t *testing.T) {
	s := startServer(t, testConfig())
	c := dialClient(t, s.Addr())

	if got := c.set("k5", "hello"); got != "STORED" {
		t.Fatalf("set = %q, want STORED", got)
	}
	lines := c.get("k5")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "VALUE k5 0 64") || lines[2] != "END" {
		t.Fatalf("get = %v, want VALUE k5/payload/END", lines)
	}
	if !strings.HasPrefix(lines[1], "rank=5;") {
		t.Fatalf("payload = %q, want rank=5 prefix", lines[1])
	}

	// Arbitrary keys hash into the keyspace.
	if lines := c.get("some-opaque-key"); lines[len(lines)-1] != "END" {
		t.Fatalf("hashed-key get = %v", lines)
	}

	c.send("prio 3")
	if got := c.line(); got != "OK" {
		t.Fatalf("prio = %q, want OK", got)
	}
	c.send("prio 99")
	if got := c.line(); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("prio 99 = %q, want CLIENT_ERROR", got)
	}

	c.send("version")
	if got := c.line(); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version = %q", got)
	}
	c.send("bogus")
	if got := c.line(); got != "ERROR" {
		t.Fatalf("bogus command = %q, want ERROR", got)
	}

	c.send("stats")
	stats := map[string]string{}
	for {
		l := c.line()
		if l == "END" {
			break
		}
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == "STAT" {
			stats[f[1]] = f[2]
		}
	}
	if stats["state"] != "ready" || stats["shards"] != "2" {
		t.Fatalf("stats = %v, want state ready / shards 2", stats)
	}
}

func TestHealthAndMetricsSidecar(t *testing.T) {
	s := startServer(t, testConfig())
	base := "http://" + s.HTTPAddr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ready" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}

	// Serve traffic, then check it shows up on /metrics.
	c := dialClient(t, s.Addr())
	for i := 0; i < 10; i++ {
		c.get(fmt.Sprintf("k%d", i))
	}
	_, body := get("/metrics")
	for _, w := range []string{
		`slicekvsd_responses_total{class="0",outcome="ok"}`,
		`slicekvsd_requests_total{op="get"}`,
		`slicekvsd_request_latency_ns_bucket{class="0",le=`,
		"slicekvsd_state 1",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
}

// TestGracefulDrain checks the drain contract: an in-flight request
// completes, new connections are refused with a retryable error, and the
// whole drain finishes within its deadline.
func TestGracefulDrain(t *testing.T) {
	cfg := walConfig(t)
	cfg.walFlushRecs = 1           // every SET hands its record to the committer
	cfg.lameDuck = 2 * time.Second // keep the refusal window observable
	cfg.checkpoint = filepath.Join(t.TempDir(), "checkpoint.json")
	// A SET reaches the committer from inside its serve, before the
	// reply: the hand-off is the signal that the request is admitted and
	// in flight.
	handedOff := make(chan struct{}, 1)
	s := startServerWith(t, cfg, func(s *server) {
		for _, sh := range s.shards {
			sh.commit = func(j *wal.Journal, b wal.Batch) error {
				select {
				case handedOff <- struct{}{}:
				default:
				}
				return j.Commit(b)
			}
		}
	})

	// Slow every request so the SET is still in flight when the drain
	// starts: the slowdown runs after the journal append.
	admin := dialClient(t, s.Addr())
	admin.send("chaos arm 42 slowdown:1:2000000")
	if got := admin.line(); !strings.HasPrefix(got, "OK") {
		t.Fatalf("chaos arm = %q", got)
	}

	inflight := dialClient(t, s.Addr())
	done := make(chan string, 1)
	go func() {
		done <- inflight.set("k9", "v")
	}()

	select {
	case <-handedOff:
	case <-time.After(30 * time.Second):
		t.Fatal("the SET never reached its shard")
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()

	// New connections must be refused with a retryable error while
	// draining (the listener stays open through the lame-duck window).
	<-s.lc.Draining()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial while draining: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.Contains(line, "draining") {
		t.Fatalf("new connection while draining read %q (%v), want a draining refusal", line, err)
	}
	if !strings.Contains(line, "retryable") {
		t.Fatalf("drain refusal %q not marked retryable", line)
	}

	// The in-flight request must have completed with a real response.
	select {
	case r := <-done:
		if r != "STORED" {
			t.Fatalf("in-flight request ended %q, want STORED", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case <-drained:
	case <-time.After(cfg.drainTimeout + cfg.lameDuck + 10*time.Second):
		t.Fatal("drain did not finish within its bound")
	}

	// Checkpoint written and coherent.
	b, err := os.ReadFile(cfg.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != cfg.shards {
		t.Fatalf("checkpoint has %d shards, want %d", len(doc.Shards), cfg.shards)
	}
	wantTransitions := []string{"starting", "recovering", "ready", "draining", "stopped"}
	if len(doc.Transitions) != len(wantTransitions) {
		t.Fatalf("transitions = %v, want %v", doc.Transitions, wantTransitions)
	}
	for i, w := range wantTransitions {
		if doc.Transitions[i] != w {
			t.Fatalf("transitions = %v, want %v", doc.Transitions, wantTransitions)
		}
	}
	var served uint64
	for _, sh := range doc.Shards {
		served += sh.Served
	}
	if served == 0 {
		t.Fatal("checkpoint records zero served requests")
	}
}

// TestCrashedShardRestartsAndRecovers drives the supervisor end to end:
// an injected shard crash fails the request it hit at once, the shard
// restarts, and it serves again.
func TestCrashedShardRestartsAndRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.requestTimeout = 500 * time.Millisecond
	cfg.breakerCooldown = 100 * time.Millisecond
	s := startServer(t, cfg)
	c := dialClient(t, s.Addr())

	c.send("chaos crash 0")
	if got := c.line(); got != "OK" {
		t.Fatalf("chaos crash = %q", got)
	}
	// k0 routes to shard 0; serving it panics.
	lines := c.get("k0")
	if !strings.HasPrefix(lines[0], "SERVER_ERROR") {
		t.Fatalf("request to crashed shard = %v, want SERVER_ERROR", lines)
	}

	// Once the supervisor has restarted the shard, it serves again.
	until(t, "shard 0 restarted", func() bool {
		w := s.sup.Snapshot()[0]
		return w.Up && w.Restarts >= 1
	})
	if lines := c.get("k0"); lines[len(lines)-1] != "END" {
		t.Fatalf("shard 0 after its restart = %v, want a hit", lines)
	}
}

// TestOverloadShedsLowClassFirst saturates the shards with slow requests
// and checks the admission guard's ordering: the refused share of class 0
// must be at least that of the top class, and the server must survive to
// serve cleanly after the storm.
func TestOverloadShedsLowClassFirst(t *testing.T) {
	cfg := testConfig()
	cfg.shards = 1
	cfg.inbox = 8
	cfg.requestTimeout = 5 * time.Second
	s := startServer(t, cfg)

	admin := dialClient(t, s.Addr())
	admin.send("chaos arm 7 slowdown:1:200000")
	if got := admin.line(); !strings.HasPrefix(got, "OK") {
		t.Fatalf("chaos arm = %q", got)
	}

	var wg sync.WaitGroup
	refusals := make([]int, 2) // [low, high]
	oks := make([]int, 2)
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cls, idx := 0, 0
			if w%4 == 0 {
				cls, idx = cfg.classes-1, 1
			}
			c := dialClient(t, s.Addr())
			c.send(fmt.Sprintf("prio %d", cls))
			c.line()
			for i := 0; i < 40; i++ {
				lines := c.get(fmt.Sprintf("k%d", i))
				mu.Lock()
				if lines[len(lines)-1] == "END" {
					oks[idx]++
				} else {
					refusals[idx]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	t.Logf("low class: %d ok / %d refused; top class: %d ok / %d refused",
		oks[0], refusals[0], oks[1], refusals[1])
	lowTotal, highTotal := oks[0]+refusals[0], oks[1]+refusals[1]
	if lowTotal == 0 || highTotal == 0 {
		t.Fatal("no traffic recorded")
	}
	lowFrac := float64(refusals[0]) / float64(lowTotal)
	highFrac := float64(refusals[1]) / float64(highTotal)
	if lowFrac < highFrac {
		t.Fatalf("class 0 refused %.2f < top class refused %.2f: priority inverted", lowFrac, highFrac)
	}

	// Clear the chaos; the server must serve cleanly again once the
	// pressure ticker has let the storm's queue-wait estimate decay and
	// the ladder has stepped back down.
	admin.send("chaos clear")
	if got := admin.line(); got != "OK" {
		t.Fatalf("chaos clear = %q", got)
	}
	sh := s.shards[0]
	calm := s.shed.Threshold(0) * float64(cfg.fullSojourn.Nanoseconds())
	until(t, "the pressure to fall below class 0's shed threshold", func() bool {
		return s.ladderLevel.Load() == 0 && sh.sojournEwma() < calm
	})
	if lines := admin.get("k1"); lines[len(lines)-1] != "END" {
		t.Fatalf("server did not recover after chaos clear: %v", lines)
	}
}

// walConfig is testConfig plus journaling into a fresh directory.
func walConfig(t *testing.T) config {
	cfg := testConfig()
	cfg.walDir = t.TempDir()
	cfg.walFlushEvery = 5 * time.Millisecond
	cfg.walFlushRecs = 4
	return cfg
}

// TestSetvGetvProtocol exercises the durability-verification verbs: setv
// acks carry monotonically increasing seqnos and versions, getv reads
// them back.
func TestSetvGetvProtocol(t *testing.T) {
	s := startServer(t, walConfig(t))
	c := dialClient(t, s.Addr())

	// k5 routes to shard 1 (rank 5 % 2 shards).
	var lastSeq, lastVer int
	for i := 1; i <= 3; i++ {
		got := strings.Fields(c.setv("k5", "hello"))
		if len(got) != 4 || got[0] != "STORED" || got[1] != "1" {
			t.Fatalf("setv = %v, want STORED 1 <seq> <ver>", got)
		}
		seq, ver := atoi(t, got[2]), atoi(t, got[3])
		if seq <= lastSeq || ver != i {
			t.Fatalf("setv #%d: seq %d (prev %d), ver %d — want increasing seq and ver %d", i, seq, lastSeq, ver, i)
		}
		lastSeq, lastVer = seq, ver
	}
	c.send("getv k5")
	if got := c.line(); got != fmt.Sprintf("VER k5 1 %d", lastVer) {
		t.Fatalf("getv = %q, want VER k5 1 %d", got, lastVer)
	}
	// A never-written key reads version 0.
	c.send("getv k7")
	if got := c.line(); got != "VER k7 1 0" {
		t.Fatalf("getv unwritten = %q, want VER k7 1 0", got)
	}
	// Plain set/get still speak the original protocol.
	if got := c.set("k6", "x"); got != "STORED" {
		t.Fatalf("set = %q, want plain STORED", got)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return n
}

// TestRecoveryAcrossRestart writes through one daemon instance, drains
// it, and boots a second on the same WAL directory: versions and seqnos
// must survive, and the boot must pass through the recovering state
// before readiness.
func TestRecoveryAcrossRestart(t *testing.T) {
	cfg := walConfig(t)
	cfg.checkpoint = filepath.Join(t.TempDir(), "checkpoint.json")

	s1 := startServer(t, cfg)
	c1 := dialClient(t, s1.Addr())
	for i := 0; i < 3; i++ {
		if got := c1.setv("k5", "v"); !strings.HasPrefix(got, "STORED 1 ") {
			t.Fatalf("setv = %q", got)
		}
	}
	if got := c1.setv("k4", "v"); !strings.HasPrefix(got, "STORED 0 ") {
		t.Fatalf("setv = %q", got)
	}
	s1.Drain()

	s2 := startServer(t, cfg)
	c2 := dialClient(t, s2.Addr())
	c2.send("getv k5")
	if got := c2.line(); got != "VER k5 1 3" {
		t.Fatalf("after restart getv k5 = %q, want VER k5 1 3", got)
	}
	c2.send("getv k4")
	if got := c2.line(); got != "VER k4 0 1" {
		t.Fatalf("after restart getv k4 = %q, want VER k4 0 1", got)
	}
	st := c2.stats()
	if st["shard1_wal_recovered_seq"] == "0" || st["shard1_wal_recovered_seq"] == "" {
		t.Fatalf("stats = %v, want shard1_wal_recovered_seq > 0", st)
	}
	// Seqnos continue after the recovered point, never reset.
	rec := atoi(t, st["shard1_wal_recovered_seq"])
	got := strings.Fields(c2.setv("k5", "w"))
	if len(got) != 4 || atoi(t, got[2]) != rec+1 {
		t.Fatalf("post-recovery setv = %v, want seq %d", got, rec+1)
	}
	s2.Drain()

	// The second boot's checkpoint shows the recovering stage.
	b, err := os.ReadFile(cfg.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{"starting", "recovering", "ready", "draining", "stopped"}
	if strings.Join(doc.Transitions, ",") != strings.Join(want, ",") {
		t.Fatalf("transitions = %v, want %v", doc.Transitions, want)
	}
}

// TestWarmRestartPreservesVersions crashes a shard mid-service: the
// supervisor's restore hook must rebuild the store from snapshot+journal,
// preserving every acked write, before the shard comes back up.
func TestWarmRestartPreservesVersions(t *testing.T) {
	cfg := walConfig(t)
	cfg.requestTimeout = 500 * time.Millisecond
	cfg.breakerCooldown = 100 * time.Millisecond
	s := startServer(t, cfg)
	c := dialClient(t, s.Addr())

	// Acked writes on shard 0 (k0, k2) and shard 1 (k5).
	for i := 0; i < 5; i++ {
		if got := c.setv("k0", "v"); !strings.HasPrefix(got, "STORED 0 ") {
			t.Fatalf("setv = %q", got)
		}
	}
	c.setv("k2", "v")
	c.setv("k5", "v")

	c.send("chaos crash 0")
	if got := c.line(); got != "OK" {
		t.Fatalf("chaos crash = %q", got)
	}
	if lines := c.get("k0"); !strings.HasPrefix(lines[0], "SERVER_ERROR") {
		t.Fatalf("crash request = %v, want SERVER_ERROR", lines)
	}

	// Wait for the supervisor to finish the warm restart, then verify the
	// acked state survived it.
	until(t, "shard 0 restored and up", func() bool {
		w := s.sup.Snapshot()[0]
		return w.Up && w.Restarts >= 1
	})
	c.send("getv k0")
	if got := c.line(); got != "VER k0 0 5" {
		t.Fatalf("after warm restart getv k0 = %q, want VER k0 0 5", got)
	}
	c.send("getv k2")
	if got := c.line(); got != "VER k2 0 1" {
		t.Fatalf("after warm restart getv k2 = %q, want VER k2 0 1", got)
	}
	st := c.stats()
	if st["shard0_restores"] == "0" || st["shard0_restores"] == "" {
		t.Fatalf("stats = %v, want shard0_restores ≥ 1", st)
	}
	if atoi(t, st["shard0_wal_recovered_seq"]) < 6 {
		t.Fatalf("stats = %v, want shard0_wal_recovered_seq ≥ 6 (all acked writes durable)", st)
	}
}

// TestDrainWhileShardDown is the satellite edge case: SIGTERM arrives
// while a shard is down in a long restart backoff. The drain must
// reach stopped with a coherent checkpoint — not hang waiting for the
// backoff, and not lose the dead shard's journal tail.
func TestDrainWhileShardDown(t *testing.T) {
	cfg := walConfig(t)
	cfg.requestTimeout = 500 * time.Millisecond
	cfg.restartBackoff = 30 * time.Second // park the shard in backoff
	cfg.checkpoint = filepath.Join(t.TempDir(), "checkpoint.json")
	s := startServer(t, cfg)
	c := dialClient(t, s.Addr())

	for i := 0; i < 3; i++ {
		if got := c.setv("k0", "v"); !strings.HasPrefix(got, "STORED 0 ") {
			t.Fatalf("setv = %q", got)
		}
	}
	c.send("chaos crash 0")
	if got := c.line(); got != "OK" {
		t.Fatalf("chaos crash = %q", got)
	}
	if lines := c.get("k0"); !strings.HasPrefix(lines[0], "SERVER_ERROR") {
		t.Fatalf("crash request = %v, want SERVER_ERROR", lines)
	}
	until(t, "shard 0 down", func() bool { return s.sup.Down() > 0 })

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain hung while a shard was down in backoff")
	}

	b, err := os.ReadFile(cfg.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Transitions[len(doc.Transitions)-1] != "stopped" {
		t.Fatalf("transitions = %v, want final stopped", doc.Transitions)
	}
	// The dead shard's acked writes were finalized at drain: durable seq
	// caught up to the assigned seq despite the shard being down.
	for _, sc := range doc.Shards {
		if sc.ID == 0 {
			if sc.WalSeq < 3 || sc.WalDurableSeq != sc.WalSeq {
				t.Fatalf("shard 0 checkpoint %+v: want durable seq == seq ≥ 3", sc)
			}
		}
	}
}

// TestChaosNICDropIsSilent checks that an injected NIC drop answers with
// nothing at all — the client's read deadline, not a refusal, reports it.
func TestChaosNICDropIsSilent(t *testing.T) {
	s := startServer(t, testConfig())
	c := dialClient(t, s.Addr())
	c.send("chaos arm 1 nic-drop:1")
	if got := c.line(); !strings.HasPrefix(got, "OK") {
		t.Fatalf("chaos arm = %q", got)
	}
	c.send("get k3")
	c.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := c.br.ReadString('\n'); err == nil {
		t.Fatal("dropped request produced a response")
	}
}
