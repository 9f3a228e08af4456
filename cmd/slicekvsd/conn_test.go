package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sliceaware/internal/overload"
)

// TestOversizedLineIsRefusedBeforeBuffering streams a megabyte with no
// newline at the server through a synchronous pipe, where every byte the
// writer gets rid of is a byte the server took: the connection must be
// refused and closed within two reader buffers, not after buffering it all.
func TestOversizedLineIsRefusedBeforeBuffering(t *testing.T) {
	s := startServer(t, testConfig())
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		s.serveConn(srv)
		srv.Close()
	}()
	reply := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(cli)
		reply <- string(b)
	}()

	chunk := bytes.Repeat([]byte("a"), 1024)
	cli.SetWriteDeadline(time.Now().Add(30 * time.Second))
	consumed, closed := 0, false
	for consumed < 1<<20 {
		n, err := cli.Write(chunk)
		consumed += n
		if err != nil {
			closed = true
			break
		}
	}
	if !closed || consumed > 8<<10 {
		t.Fatalf("server consumed %d bytes of a newline-less stream (closed=%v), want the connection closed within 8 KiB", consumed, closed)
	}
	if got := <-reply; got != "CLIENT_ERROR line too long\r\n" {
		t.Fatalf("reply = %q, want CLIENT_ERROR line too long", got)
	}
}

// TestLargeSetIsNotBuffered sends the largest data block the protocol
// allows and checks the process allocated nowhere near its size while
// serving it: the block is skipped in the reader, not copied out of it.
func TestLargeSetIsNotBuffered(t *testing.T) {
	s := startServer(t, testConfig())
	c := dialClient(t, s.Addr())
	if got := c.set("k1", "x"); got != "STORED" { // connection buffers exist from here on
		t.Fatalf("set = %q, want STORED", got)
	}
	request := append([]byte("set k1 0 0 1048576\r\n"), make([]byte, 1<<20+2)...)
	copy(request[len(request)-2:], "\r\n")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.conn.Write(request); err != nil {
		t.Fatal(err)
	}
	got := c.line()
	runtime.ReadMemStats(&after)
	if got != "STORED" {
		t.Fatalf("1 MiB set = %q, want STORED", got)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 64<<10 {
		t.Fatalf("serving a 1 MiB set allocated %d bytes, want < 64 KiB", delta)
	}
}

// TestShardLock covers the request path's one point of contention: each
// request runs on its connection goroutine under its shard's FIFO lock.
// Every wait here is on a channel or an observed count, none on a sleep.
func TestShardLock(t *testing.T) {
	t.Run("stalled holder", func(t *testing.T) {
		cfg := testConfig()
		cfg.requestTimeout = 100 * time.Millisecond
		// The stall is queue delay; keep the overload guard from answering it.
		cfg.fullSojourn, cfg.aqm = time.Hour, "none"
		s := startServerWith(t, cfg, func(s *server) {
			// A one-outcome window trips on the first failure it is told of.
			b, err := overload.NewSyncBreaker(overload.BreakerConfig{Window: 1, Cooldown: float64(time.Hour)})
			if err != nil {
				t.Fatal(err)
			}
			s.shards[0].breaker = b
		})
		sh := s.shards[0]
		c1, c2 := dialClient(t, s.Addr()), dialClient(t, s.Addr())

		// Request 1 takes shard 0's lock and stalls on the injector mutex.
		release := sync.OnceFunc(sh.injMu.Unlock)
		sh.injMu.Lock()
		defer release()
		c1.send("setv k0 0 0 1")
		c1.send("v")
		until(t, "request 1 to hold shard 0's lock", func() bool { return len(sh.lock) == 1 })

		// Request 2, from another connection, waits out requestTimeout.
		c2.send("getv k2")
		if got := c2.line(); !strings.Contains(got, "timeout") || !strings.Contains(got, "retryable") {
			t.Fatalf("getv behind a stalled holder = %q, want a retryable timeout", got)
		}
		if st := sh.breaker.State(); st != overload.BreakerOpen {
			t.Fatalf("breaker %v after the timeout, want open: a timeout is a failure", st)
		}
		if n := s.ctrResp[0]["timeout"].Value(); n != 1 {
			t.Fatalf("%d timeout outcomes, want 1", n)
		}

		// Released, request 1 gets its own answer, and its connection is
		// still in step with its requests.
		release()
		if got := c1.line(); got != "STORED 0 0 1" {
			t.Fatalf("request 1 = %q, want its own answer STORED 0 0 1", got)
		}
		c1.send("getv k1")
		if got := c1.line(); got != "VER k1 1 0" {
			t.Fatalf("getv k1 = %q, want VER k1 1 0", got)
		}
	})

	t.Run("queue bound", func(t *testing.T) {
		cfg := testConfig()
		cfg.inbox = 2
		cfg.fullSojourn, cfg.aqm = time.Hour, "none"
		s := startServer(t, cfg)
		sh := s.shards[0]

		sh.lock <- struct{}{} // hold shard 0's lock
		var waiting []*client
		for i := 0; i < cfg.inbox; i++ {
			c := dialClient(t, s.Addr())
			// The top class: the shedder admits it while the queue is not full.
			c.send(fmt.Sprintf("prio %d", cfg.classes-1))
			if got := c.line(); got != "OK" {
				t.Fatalf("prio = %q", got)
			}
			c.send(fmt.Sprintf("getv k%d", 2*i))
			until(t, "the request to wait for the lock", func() bool { return sh.waiters.Load() == int32(i+1) })
			waiting = append(waiting, c)
		}
		// With the queue full the shedder refuses a request before it
		// reaches the lock; the bound is for requests admitted together
		// with the last waiter. Run one on the shard directly.
		m := newMemConn()
		if _, err := s.runOnShard(m.c, sh, request{rank: 2 * uint64(cfg.inbox)}); !errors.Is(err, errInbox) {
			t.Fatalf("request past %d waiters: %v, want errInbox", cfg.inbox, err)
		}
		if n := s.ctrResp[0]["inbox_full"].Value(); n != 1 {
			t.Fatalf("%d inbox_full outcomes, want 1", n)
		}

		sh.unlock()
		for i, c := range waiting {
			if got, want := c.line(), fmt.Sprintf("VER k%d 0 0", 2*i); got != want {
				t.Fatalf("waiter %d = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("crash", func(t *testing.T) {
		cfg := walConfig(t)
		// The acked SETs stay buffered until the restore commits them, so
		// the gate holds the restart open.
		cfg.walFlushEvery, cfg.walFlushRecs = time.Hour, 64
		gate := newCommitGate(t)
		quit := make(chan struct{})
		t.Cleanup(func() { close(quit) })
		s := startServerWith(t, cfg, func(s *server) { s.shards[0].commit = gate.commit })
		// Cleanups run last-registered first: the pump starts before the
		// drain, so a failed step cannot leave teardown on a held commit.
		t.Cleanup(func() { go gate.pump(quit) })
		sh := s.shards[0]
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
		// The crashing request is answered at once, not after requestTimeout.
		start := time.Now()
		if got := c.setv("k0", "v"); !strings.HasPrefix(got, "SERVER_ERROR") || !strings.Contains(got, "retryable") {
			t.Fatalf("setv into a crashing shard = %q, want a retryable SERVER_ERROR", got)
		}
		if d := time.Since(start); d >= cfg.requestTimeout {
			t.Fatalf("the crashing request was answered after %v, not at once", d)
		}

		// The restore commits the buffered SETs before it rebuilds the
		// store; while the gate holds that commit, the shard is down.
		if b := gate.held(); b.Last() != 3 {
			t.Fatalf("restore committed through seq %d, want 3", b.Last())
		}
		if body := scrape(t, s); !strings.Contains(body, "\nslicekvsd_shards_down 1\n") {
			t.Fatalf("/metrics during the restart lacks slicekvsd_shards_down 1:\n%s", body)
		}
		// A request arriving now waits for the lock, which the supervisor's
		// resume releases over the rebuilt store.
		c.send("getv k0")
		until(t, "getv to wait for the lock", func() bool { return sh.waiters.Load() == 1 })
		gate.let(true)
		if got := c.line(); got != "VER k0 0 3" {
			t.Fatalf("getv k0 after the restart = %q, want VER k0 0 3", got)
		}
		if err := gate.result(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("aqm sees the lock wait", func(t *testing.T) {
		cfg := testConfig() // the default CoDel: 500 µs target, 5 ms interval
		cfg.shards = 1
		cfg.fullSojourn = time.Hour // the waits are the AQM's to judge, not the shedder's
		s := startServer(t, cfg)
		sh := s.shards[0]
		// Stretch every request to several milliseconds of service, so
		// the queue below stands for longer than CoDel's interval.
		admin := dialClient(t, s.Addr())
		admin.send("chaos arm 5 slowdown:1:200000")
		if got := admin.line(); !strings.HasPrefix(got, "OK") {
			t.Fatalf("chaos arm = %q", got)
		}

		release := sync.OnceFunc(sh.injMu.Unlock)
		sh.injMu.Lock()
		defer release()
		holder := dialClient(t, s.Addr())
		holder.send("getv k0")
		until(t, "the holder to take the lock", func() bool { return len(sh.lock) == 1 })
		waiting := make([]*client, 8)
		for i := range waiting {
			waiting[i] = dialClient(t, s.Addr())
			waiting[i].send(fmt.Sprintf("getv k%d", i+1))
			until(t, "the request to wait for the lock", func() bool { return sh.waiters.Load() == int32(i+1) })
		}
		release()
		if got := holder.line(); got != "VER k0 0 0" {
			t.Fatalf("holder = %q, want VER k0 0 0", got)
		}
		var drops uint64
		for i, c := range waiting {
			switch got := c.line(); got {
			case fmt.Sprintf("VER k%d 0 0", i+1):
			case "SERVER_ERROR " + errAQM.Error():
				drops++
			default:
				t.Fatalf("waiter %d = %q, want its version or an AQM drop", i, got)
			}
		}
		t.Logf("%d of %d waiters dropped", drops, len(waiting))
		if drops == 0 || sh.aqmDrops.Load() != drops || s.ctrResp[0]["aqm"].Value() != drops {
			t.Fatalf("%d AQM drops answered, aqmDrops %d, aqm outcomes %d: want equal and > 0",
				drops, sh.aqmDrops.Load(), s.ctrResp[0]["aqm"].Value())
		}
	})
}

// scrape returns the daemon's /metrics page.
func scrape(t *testing.T, s *server) string {
	t.Helper()
	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKeyRank pins the key → rank mapping, which journals and snapshots
// on disk depend on: k<n> is rank n, anything else is FNV-1a of the key.
func TestKeyRank(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.keyRank([]byte("k5")); got != 5 {
		t.Errorf("keyRank(k5) = %d, want 5", got)
	}
	if got, want := s.keyRank([]byte("k1029")), 1029%s.cfg.keys; got != want {
		t.Errorf("keyRank(k1029) = %d, want %d", got, want)
	}
	for _, key := range []string{"", "k", "kx1", "some-opaque-key", "k18446744073709551616"} {
		h := fnv.New64a()
		io.WriteString(h, key)
		if got, want := s.keyRank([]byte(key)), h.Sum64()%s.cfg.keys; got != want {
			t.Errorf("keyRank(%q) = %d, want FNV-1a's %d", key, got, want)
		}
	}
}
