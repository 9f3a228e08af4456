package main

import (
	"bytes"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestLateReplyStaysWithItsRequest covers the one hazard of reusing a
// connection's request slot: a request that timed out may still be
// answered by the worker, and that answer must never be taken for the
// reply to the connection's next request.
func TestLateReplyStaysWithItsRequest(t *testing.T) {
	t.Run("stalled worker", func(t *testing.T) {
		cfg := testConfig()
		cfg.requestTimeout = 500 * time.Millisecond
		// The stall is queue delay; keep the overload guard from answering it.
		cfg.fullSojourn, cfg.aqm = time.Hour, "none"
		s := startServer(t, cfg)
		c := dialClient(t, s.Addr())
		sh := s.shards[0]

		// Request 1 reaches the worker, which stalls on the injector lock
		// until the connection has given up on it.
		release := sync.OnceFunc(sh.injMu.Unlock)
		sh.injMu.Lock()
		defer release()
		if got := c.setv("k0", "v"); !strings.Contains(got, "timeout") {
			t.Fatalf("setv against a stalled worker = %q, want a timeout", got)
		}
		// Request 2, same connection and shard, queues behind it. Released,
		// the worker answers request 1 (version 1 of k0) and then request 2.
		c.send("getv k2")
		waitFor(t, 10*time.Second, "request 2 to reach the inbox", func() bool { return len(sh.inbox) == 1 })
		release()
		if got := c.line(); got != "VER k2 0 0" {
			t.Fatalf("request 2 = %q, want its own answer VER k2 0 0", got)
		}
		c.send("getv k0")
		if got := c.line(); got != "VER k0 0 1" {
			t.Fatalf("getv k0 = %q, want VER k0 0 1: the late write did run", got)
		}
	})

	t.Run("crashed worker", func(t *testing.T) {
		cfg := testConfig()
		cfg.requestTimeout = 300 * time.Millisecond
		cfg.breakerCooldown = 100 * time.Millisecond
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
		// The worker panics holding this request; nobody will ever answer it.
		if got := c.setv("k0", "v"); !strings.Contains(got, "timeout") {
			t.Fatalf("setv into a crashing worker = %q, want a timeout", got)
		}
		// The connection's next requests are the restarted worker's to answer.
		deadline := time.Now().Add(20 * time.Second)
		for {
			c.send("getv k0")
			got := c.line()
			if got == "VER k0 0 3" {
				break
			}
			if !strings.HasPrefix(got, "SERVER_ERROR") || time.Now().After(deadline) {
				t.Fatalf("getv k0 after the crash = %q, want VER k0 0 3", got)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
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
