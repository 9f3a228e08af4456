package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// benchShard builds one shard for its serve path outside the network,
// optionally journaling into a temp directory.
func benchShard(b *testing.B, walOn bool) *shard {
	b.Helper()
	cfg := defaultConfig()
	cfg.shards = 1
	cfg.keys = 1 << 10
	cfg.aqm = "none"
	if walOn {
		cfg.walDir = b.TempDir()
	}
	sh, err := newShard(0, cfg, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	sh.logf = func(string, ...any) {}
	if walOn {
		if _, err := sh.recoverState(); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sh.closeWAL(false) })
	}
	return sh
}

// benchServe drives SETs straight through shard.serve — the path a
// request pays under the shard lock.
func benchServe(b *testing.B, sh *shard) {
	req := &request{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.rank = uint64(i) & 1023
		req.enqueued = time.Now()
		if r := sh.serve(req); r.err != nil {
			b.Fatal(r.err)
		}
	}
}

// BenchmarkShardServeSetNoWAL measures the nil-is-free contract: with
// journaling disabled the SET path pays one nil check over the pre-WAL
// hot path. TestAdmittedPathAllocs pins its allocation side.
func BenchmarkShardServeSetNoWAL(b *testing.B) {
	benchServe(b, benchShard(b, false))
}

// BenchmarkShardServeSetWAL is the journaled SET path at default flush
// thresholds — amortized group commits (fsync every 64 records) and the
// periodic snapshot are the durability cost per acked write.
func BenchmarkShardServeSetWAL(b *testing.B) {
	benchServe(b, benchShard(b, true))
}

// benchServer is a ready in-process daemon with tracing and journaling
// off — the configuration the allocation contract is stated for — and an
// overload guard that a slow host cannot push into refusing: these
// measurements are of the admitted path.
func benchServer(tb testing.TB) *server {
	tb.Helper()
	cfg := defaultConfig()
	cfg.addr, cfg.httpAddr = "127.0.0.1:0", ""
	cfg.shards = 2
	cfg.keys = 1 << 10
	cfg.warmup = 8
	cfg.fullSojourn, cfg.aqm = time.Hour, "none"
	s, err := newServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.logf = func(string, ...any) {}
	if err := s.Serve(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Drain)
	return s
}

// memConn is the in-memory connection the dispatch measurements run
// over: each round trip replays request bytes into c's reader and
// collects the reply in dst.
type memConn struct {
	c   *connState
	src bytes.Reader
	dst bytes.Buffer
}

func newMemConn() *memConn {
	m := &memConn{}
	m.c = newConnState(&m.src, &m.dst)
	return m
}

// roundTrip feeds one request to dispatch the way serveConn would and
// checks the reply byte for byte.
func (m *memConn) roundTrip(tb testing.TB, s *server, request, want []byte) {
	m.src.Reset(request)
	m.c.br.Reset(&m.src)
	m.dst.Reset()
	line, err := readLine(m.c.br)
	if err != nil {
		tb.Fatal(err)
	}
	quit, _ := s.dispatch(m.c, line)
	m.c.bw.Flush()
	if quit || !bytes.Equal(m.dst.Bytes(), want) {
		tb.Fatalf("dispatch of %q: reply %q (close=%v), want %q", request, m.dst.Bytes(), quit, want)
	}
}

var (
	getRequest = []byte("get k7\r\n")
	getReply   = []byte("VALUE k7 0 64\r\nrank=7;" + strings.Repeat(".", 57) + "\r\nEND\r\n")
	setRequest = []byte("set k7 0 0 64\r\n" + strings.Repeat("x", 64) + "\r\n")
	setReply   = []byte("STORED\r\n")
	// k9 is never written, so its version stays 0.
	getvRequest = []byte("getv k9\r\n")
	getvReply   = []byte("VER k9 1 0\r\n")
)

// TestAdmittedPathAllocs pins the allocation contract of the request
// path: with the tracer and the journal off, an admitted get or set costs
// no allocation from command line to reply, the simulated store op
// included.
func TestAdmittedPathAllocs(t *testing.T) {
	s := benchServer(t)
	m := newMemConn()
	serve := func(isGet bool) func() {
		return func() {
			if _, err := s.serveRequest(m.c, 7, isGet, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"serveRequest get", serve(true)},
		{"serveRequest set", serve(false)},
		{"dispatch get", func() { m.roundTrip(t, s, getRequest, getReply) }},
		{"dispatch set", func() { m.roundTrip(t, s, setRequest, setReply) }},
		{"dispatch getv", func() { m.roundTrip(t, s, getvRequest, getvReply) }},
	} {
		if allocs := testing.AllocsPerRun(2000, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkServeRequestGet is admission plus the shard lock and the store
// op, without protocol parsing or a socket.
func BenchmarkServeRequestGet(b *testing.B) {
	s := benchServer(b)
	m := newMemConn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.serveRequest(m.c, uint64(i)&1023, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchGet is one get from command line to buffered reply.
func BenchmarkDispatchGet(b *testing.B) {
	s := benchServer(b)
	m := newMemConn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.roundTrip(b, s, getRequest, getReply)
	}
}
