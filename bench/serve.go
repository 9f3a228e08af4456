package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sliceaware/internal/parallel"
	"sliceaware/internal/zipf"
)

// The serve-read and serve-write-wal workloads: slicekvsd as a child
// process, driven over TCP loopback by a closed loop — serveConns
// connections, one request outstanding on each, no think time, all at the
// top priority class. One operation is one request.

const (
	serveShards  = 2
	serveConns   = 2 // nproc here; more would only queue behind the two cores
	serveClass   = 3
	zipfTheta    = 0.99
	setShare     = 0.05 // of serve-read's requests
	valueLen     = 64
	readyTimeout = 15 * time.Second
	replyTimeout = 5 * time.Second
)

// serveSpec tells the two serving workloads apart.
type serveSpec struct {
	name  string
	write bool // 100 % setv into a journaled daemon, instead of 95/5 get/set
}

func serveWorkload(spec serveSpec) workload {
	return workload{
		name:    spec.name,
		measure: func(h *harness, res *WorkloadResult) error { return measureServe(h, res, spec) },
		trace:   func(h *harness, res *WorkloadResult) error { return traceServe(h, res, spec) },
	}
}

// daemon is one running slicekvsd.
type daemon struct {
	proc     *child
	addr     string
	httpAddr string
	log      *os.File
}

// freeAddr asks the kernel for an unused loopback port, the way cmd/fleet
// assigns its daemons' addresses.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches slicekvsd with the workload's flags — everything
// not named here is the daemon's default — and returns once /readyz is
// green. -full-sojourn is raised from 1 ms because at two requests in
// flight the default intermittently sheds top-class requests whenever a
// shard thread is descheduled; at 100 ms a refusal here is a real failure.
func startDaemon(h *harness, walDir string, traceSample int) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-shards", strconv.Itoa(serveShards), "-keys", strconv.FormatUint(h.size.keys, 10),
		"-full-sojourn", "100ms", "-addr", addr, "-http", httpAddr,
	}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	if traceSample > 0 {
		args = append(args, "-trace-sample", strconv.Itoa(traceSample))
	}
	logFile, err := os.CreateTemp(h.tmp, "slicekvsd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(h.bin, "slicekvsd"), args...)
	cmd.Dir = h.tmp // the drain checkpoint, if any, lands in the temp directory
	cmd.Stdout, cmd.Stderr = logFile, logFile
	proc, err := startChild(cmd)
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start slicekvsd: %w", err)
	}
	d := &daemon{proc: proc, addr: addr, httpAddr: httpAddr, log: logFile}
	if err := d.awaitReady(); err != nil {
		d.kill()
		return nil, fmt.Errorf("%w; daemon log: %s", err, d.logTail())
	}
	return d, nil
}

func (d *daemon) awaitReady() error {
	client := http.Client{Timeout: 500 * time.Millisecond}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + d.httpAddr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if d.proc.exited() {
			return fmt.Errorf("slicekvsd exited before /readyz turned green: %v", d.proc.err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("slicekvsd /readyz not green within %v", readyTimeout)
}

func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(raw) > 600 {
		raw = raw[len(raw)-600:]
	}
	return strings.TrimSpace(string(raw))
}

// stop drains the daemon with SIGTERM and expects a clean exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.proc.cmd.Process.Signal(syscall.SIGTERM) // already gone: wait reports how it went
	if err := d.proc.wait(15 * time.Second); err != nil {
		return fmt.Errorf("slicekvsd drain: %w; daemon log: %s", err, d.logTail())
	}
	return nil
}

// kill ends the daemon without ceremony, on an error path.
func (d *daemon) kill() {
	d.proc.kill()
	<-d.proc.done
	d.log.Close()
}

func (d *daemon) scrape() ([]promSeries, error) {
	client := http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(raw))
}

// appendValue appends the payload slicekvsd synthesises for a key rank:
// "rank=<n>;" padded with dots to valueLen bytes. The request loop calls it
// on a reused buffer so that the load generator allocates nothing per
// request on the two cores it shares with the daemon.
func appendValue(dst []byte, rank uint64) []byte {
	start := len(dst)
	dst = append(strconv.AppendUint(append(dst, "rank="...), rank, 10), ';')
	for len(dst) < start+valueLen {
		dst = append(dst, '.')
	}
	return dst
}

// checkGetReply verifies a get reply — header line, data block with its
// CRLF, END line — against the rank that was asked for.
func checkGetReply(header string, block []byte, end string, rank uint64) error {
	want := "VALUE k" + strconv.FormatUint(rank, 10) + " 0 " + strconv.Itoa(valueLen)
	if header != want {
		return fmt.Errorf("get k%d: header %q, want %q", rank, header, want)
	}
	if len(block) != valueLen+2 || string(block[valueLen:]) != "\r\n" {
		return fmt.Errorf("get k%d: data block of %d bytes is not %d bytes and CRLF", rank, len(block), valueLen)
	}
	var value [valueLen]byte
	if !bytes.Equal(block[:valueLen], appendValue(value[:0], rank)) {
		return fmt.Errorf("get k%d: payload %q is not the value of that key", rank, block[:valueLen])
	}
	if end != "END" {
		return fmt.Errorf("get k%d: %q where END was due", rank, end)
	}
	return nil
}

// checkSetvReply verifies `STORED <shard> <seq> <version>` for a setv of
// rank: the shard must be the key's, and the version must be higher than
// any this connection was acked for the key before.
func checkSetvReply(line string, rank uint64, lastAcked uint64) (version uint64, err error) {
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "STORED" {
		return 0, fmt.Errorf("setv k%d: reply %q is not STORED <shard> <seq> <version>", rank, line)
	}
	shard, err1 := strconv.ParseUint(f[1], 10, 64)
	_, err2 := strconv.ParseUint(f[2], 10, 64)
	version, err3 := strconv.ParseUint(f[3], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, fmt.Errorf("setv k%d: reply %q has a field that is not a number", rank, line)
	}
	if shard != rank%serveShards {
		return 0, fmt.Errorf("setv k%d: acked by shard %d, the key lives on shard %d", rank, shard, rank%serveShards)
	}
	if version <= lastAcked {
		return 0, fmt.Errorf("setv k%d: acked version %d after version %d was already acked", rank, version, lastAcked)
	}
	return version, nil
}

// checkGetvReply verifies `VER <key> <shard> <version>` against the ledger.
func checkGetvReply(line string, rank, wantVersion uint64) error {
	want := fmt.Sprintf("VER k%d %d %d", rank, rank%serveShards, wantVersion)
	if line != want {
		return fmt.Errorf("getv k%d after restart: %q, want %q", rank, line, want)
	}
	return nil
}

// client is one closed-loop connection.
type client struct {
	spec   serveSpec
	addr   string
	conn   net.Conn
	br     *bufio.Reader
	rng    *rand.Rand
	keys   *zipf.Zipf
	req    []byte
	block  []byte
	ledger map[uint64]uint64 // write workload: highest acked version per key

	latUs     []float64 // round trip of each acknowledged request of the window
	attempted int64
	failed    int64
	problems  []string
}

// clientSeed derives connection id's key stream from the workload seed the
// way the repository derives every per-trial seed.
func clientSeed(seed int64, id int) int64 { return parallel.Seed(seed, "bench/serve", id) }

func newClient(spec serveSpec, addr string, seed int64, id int, keys uint64) (*client, error) {
	rng := rand.New(rand.NewSource(clientSeed(seed, id)))
	z, err := zipf.NewZipf(rng, keys, zipfTheta)
	if err != nil {
		return nil, err
	}
	c := &client{spec: spec, addr: addr, rng: rng, keys: z, block: make([]byte, valueLen+2), ledger: map[uint64]uint64{}}
	return c, c.dial()
}

func (c *client) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, replyTimeout)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReader(conn)
	reply, err := c.roundTrip([]byte("prio " + strconv.Itoa(serveClass) + "\r\n"))
	if err != nil {
		return err
	}
	if reply != "OK" {
		return fmt.Errorf("prio %d: %q", serveClass, reply)
	}
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

func (c *client) readLine() (string, error) {
	line, err := c.br.ReadString('\n')
	return strings.TrimRight(line, "\r\n"), err
}

// roundTrip sends one request and reads the first line of its reply.
func (c *client) roundTrip(req []byte) (string, error) {
	c.conn.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := c.conn.Write(req); err != nil {
		return "", err
	}
	return c.readLine()
}

// one issues the next request of the stream and checks its reply. A
// refused, errored, timed-out or wrong reply is an error.
func (c *client) one() error {
	rank := c.keys.Next()
	switch {
	case c.spec.write:
		line, err := c.roundTrip(c.storeRequest("setv k", rank))
		if err != nil {
			return err
		}
		ver, err := checkSetvReply(line, rank, c.ledger[rank])
		if err != nil {
			return err
		}
		c.ledger[rank] = ver
		return nil
	case c.rng.Float64() < setShare:
		line, err := c.roundTrip(c.storeRequest("set k", rank))
		if err != nil {
			return err
		}
		if line != "STORED" {
			return fmt.Errorf("set k%d: %q", rank, line)
		}
		return nil
	default:
		c.req = append(strconv.AppendUint(append(c.req[:0], "get k"...), rank, 10), "\r\n"...)
		header, err := c.roundTrip(c.req)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(header, "VALUE ") {
			return fmt.Errorf("get k%d: %q", rank, header)
		}
		if _, err := io.ReadFull(c.br, c.block); err != nil {
			return err
		}
		end, err := c.readLine()
		if err != nil {
			return err
		}
		return checkGetReply(header, c.block, end, rank)
	}
}

// storeRequest renders `<verb><rank> 0 0 64` and the data block into the
// connection's reused request buffer.
func (c *client) storeRequest(verb string, rank uint64) []byte {
	c.req = append(strconv.AppendUint(append(c.req[:0], verb...), rank, 10), " 0 0 64\r\n"...)
	c.req = append(appendValue(c.req, rank), "\r\n"...)
	return c.req
}

// drive runs the closed loop for count requests, or until the deadline when
// count is 0. Only recorded requests count toward the workload's numbers.
func (c *client) drive(count int, deadline time.Time, record bool) error {
	for i := 0; ; i++ {
		if count > 0 && i >= count {
			return nil
		}
		t0 := time.Now()
		if count == 0 && !t0.Before(deadline) {
			return nil
		}
		err := c.one()
		if record {
			c.attempted++
		}
		if err == nil {
			if record {
				c.latUs = append(c.latUs, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			continue
		}
		if !record {
			return fmt.Errorf("warm-up request failed: %w", err)
		}
		c.failed++
		if len(c.problems) < 5 {
			c.problems = append(c.problems, err.Error())
		}
		// The stream's framing is unknown after a bad reply: start over on
		// a new connection. If the daemon is gone there is nothing to measure.
		c.close()
		if err := c.dial(); err != nil {
			return fmt.Errorf("reconnect after %q: %w", c.problems[len(c.problems)-1], err)
		}
	}
}

// walWatch is what the 10 Hz sampler saw of the journal while a traced
// write window ran.
type walWatch struct {
	pendingMax float64
	lagMaxS    float64
	diskMax    float64
}

func dirBytes(dir string) float64 {
	total := 0.0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += float64(info.Size())
		}
	}
	return total
}

// watchWAL samples the daemon's journal gauges and the directory at 10 Hz
// until stop is closed.
func watchWAL(d *daemon, walDir string, stop <-chan struct{}, out *walWatch, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		series, err := d.scrape()
		if err != nil {
			continue // a missed sample only thins the maximum's support
		}
		for _, s := range series {
			switch s.name {
			case "slicekvsd_wal_pending_records":
				out.pendingMax = max(out.pendingMax, s.value)
			case "slicekvsd_wal_flush_lag_seconds":
				out.lagMaxS = max(out.lagMaxS, s.value)
			}
		}
		out.diskMax = max(out.diskMax, dirBytes(walDir))
	}
}

// serveRepeat is what one fresh daemon and one measured window yielded.
type serveRepeat struct {
	setupS float64
	// window is the measured window as one slice. Cutting it into quarter
	// seconds and taking the best quartile, as nfv-chain does with its
	// calls, was tried and bought nothing: what differs here differs
	// between daemon instances, not within one.
	window    slice
	latN      int // round trips behind the window's percentiles
	rssMiB    float64
	attempted int64
	failed    int64
	problems  []string
	before    []promSeries // traced repeats: /metrics at the window's ends
	after     []promSeries
	wal       walWatch
	rttUs     float64
}

// runServeRepeat starts a daemon, warms it, drives the closed loop for
// window, and stops the daemon. With verifyRestart (write workload) it then
// restarts the daemon on the same directory and reads the ledger back.
func runServeRepeat(h *harness, spec serveSpec, rep int, window time.Duration, traced, verifyRestart bool) (*serveRepeat, error) {
	r := &serveRepeat{}
	walDir, sample := "", 0
	if spec.write {
		var err error
		if walDir, err = os.MkdirTemp(h.tmp, "wal-"); err != nil {
			return nil, err
		}
	}
	if traced {
		sample = 1
	}
	phase := h.spans.open(0, spec.name+"/repeat", spec.name, rep)
	defer h.spans.close(phase)

	t0 := time.Now()
	d, err := startDaemon(h, walDir, sample)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	tReady := time.Now()
	h.spans.add(phase, "slicekvsd.spawn_to_ready", spec.name, rep, t0, tReady)

	clients := make([]*client, serveConns)
	for i := range clients {
		if clients[i], err = newClient(spec, d.addr, h.seed, i, h.size.keys); err != nil {
			return nil, fmt.Errorf("connect: %w", err)
		}
		defer clients[i].close()
	}
	both := func(count int, deadline time.Time, record bool) error {
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				errs[i] = c.drive(count, deadline, record)
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := both(h.size.warmupReqs, time.Time{}, false); err != nil {
		return nil, fmt.Errorf("%w; daemon log: %s", err, d.logTail())
	}
	r.setupS = time.Since(t0).Seconds()
	h.spans.add(phase, "warmup", spec.name, rep, tReady, time.Now())

	pid := d.proc.cmd.Process.Pid
	var watchers sync.WaitGroup
	stopWatch := make(chan struct{})
	if traced {
		if r.before, err = d.scrape(); err != nil {
			return nil, err
		}
		if spec.write {
			watchers.Add(1)
			go watchWAL(d, walDir, stopWatch, &r.wal, &watchers)
		}
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	w0 := time.Now()
	err = both(0, w0.Add(window), true)
	w1 := time.Now()
	close(stopWatch)
	watchers.Wait()
	h.spans.add(phase, "measured_window", spec.name, rep, w0, w1)
	if err != nil {
		return nil, fmt.Errorf("%w; daemon log: %s", err, d.logTail())
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	if r.rssMiB, err = procPeakRSSMiB(pid); err != nil {
		return nil, err
	}
	if traced {
		if r.after, err = d.scrape(); err != nil {
			return nil, err
		}
		if r.rttUs, err = versionRTT(d.addr, h.size.versionProbes); err != nil {
			return nil, err
		}
	}

	ledger := map[uint64]uint64{}
	var lat []float64
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		r.problems = append(r.problems, c.problems...)
		lat = append(lat, c.latUs...)
		for k, v := range c.ledger {
			ledger[k] = max(ledger[k], v)
		}
		c.close()
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("repeat %d acknowledged no request; daemon log: %s", rep, d.logTail())
	}
	sort.Float64s(lat)
	r.latN = len(lat)
	r.window = slice{
		ops: float64(len(lat)), wallS: w1.Sub(w0).Seconds(), cpuS: cpu1 - cpu0,
		p50Us: percentile(lat, 50), tailUs: percentile(lat, tailPercentile(len(lat))),
	}

	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if verifyRestart {
		if err := checkRecovered(h, walDir, ledger, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// versionRTT times `version`, which the connection goroutine answers
// without entering admission or a shard: the loopback and socket floor
// under every request.
func versionRTT(addr string, probes int) (float64, error) {
	conn, err := net.DialTimeout("tcp", addr, replyTimeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rtts := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		conn.SetDeadline(time.Now().Add(replyTimeout))
		t0 := time.Now()
		if _, err := conn.Write([]byte("version\r\n")); err != nil {
			return 0, err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		if !strings.HasPrefix(line, "VERSION ") {
			return 0, fmt.Errorf("version: %q", line)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(rtts), nil
}

// checkRecovered restarts the daemon on walDir and asserts acked ⇒
// recovered: a seeded sample of keys must read back at exactly the highest
// version the ledger holds (0 for a key never written).
func checkRecovered(h *harness, walDir string, ledger map[uint64]uint64, r *serveRepeat) error {
	d, err := startDaemon(h, walDir, 0)
	if err != nil {
		return fmt.Errorf("restart on the journal: %w", err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			r.failed++
			r.problems = append(r.problems, err.Error())
		}
	}()
	conn, err := net.DialTimeout("tcp", d.addr, replyTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rng := rand.New(rand.NewSource(parallel.Seed(h.seed, "bench/restart-sample", 0)))
	for i := 0; i < h.size.sampleKeys; i++ {
		rank := uint64(rng.Int63n(int64(h.size.keys)))
		conn.SetDeadline(time.Now().Add(replyTimeout))
		if _, err := fmt.Fprintf(conn, "getv k%d\r\n", rank); err != nil {
			return err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		r.attempted++
		if err := checkGetvReply(strings.TrimRight(line, "\r\n"), rank, ledger[rank]); err != nil {
			r.failed++
			if len(r.problems) < 5 {
				r.problems = append(r.problems, err.Error())
			}
		}
	}
	return nil
}

// fold adds a repeat's request accounting to the workload's.
func (r *serveRepeat) fold(res *WorkloadResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	for _, p := range r.problems {
		res.problem("%s", p)
	}
}

func measureServe(h *harness, res *WorkloadResult, spec serveSpec) error {
	window := time.Duration(h.size.seconds / float64(h.size.repeats) * float64(time.Second))
	var setup, rss []float64
	var repeats [][]slice
	for rep := 0; rep < h.size.repeats; rep++ {
		last := rep == h.size.repeats-1
		r, err := runServeRepeat(h, spec, rep, window, false, spec.write && last)
		if err != nil {
			return err
		}
		r.fold(res)
		setup = append(setup, r.setupS)
		rss = append(rss, r.rssMiB)
		repeats = append(repeats, []slice{r.window})
		w := r.window
		h.logf("%s: repeat %d: %.0f ops/s, p50 %.1f µs, tail %.1f µs, %.1f µs CPU/op; setup %.2f s",
			spec.name, rep, w.ops/w.wallS, w.p50Us, w.tailUs, w.cpuS*1e6/w.ops, r.setupS)
		res.note("slices_per_repeat", 1)
		res.note("lat_samples", float64(r.latN))
		res.note("lat_tail_percentile", tailPercentile(r.latN))
	}
	res.EndToEnd = endToEnd(repeats, setup)
	res.note("peak_rss_mb", median(rss))
	return nil
}

// serveStages are slicekvsd's request stages in pipeline order, as the
// stage label of slicekvsd_request_stage_ns spells them.
var serveStages = []string{"parse", "drain_gate", "shed", "ladder", "breaker", "inbox_wait", "shard_service", "store_op", "reply_write"}

func traceServe(h *harness, res *WorkloadResult, spec serveSpec) error {
	window := time.Duration(h.size.seconds / float64(h.size.repeats) * float64(time.Second))
	out := map[string]float64{}
	res.PerLayer = out

	// Tracing overhead is the traced throughput against an untraced one; a
	// traced-only invocation has to take the untraced window itself.
	untraced := res.EndToEnd["ops_per_s"].Median
	if untraced == 0 {
		r, err := runServeRepeat(h, spec, 0, window, false, false)
		if err != nil {
			return err
		}
		r.fold(res)
		untraced = r.window.ops / r.window.wallS
	}
	r, err := runServeRepeat(h, spec, 1, window, true, spec.write)
	if err != nil {
		return err
	}
	r.fold(res)
	out["obs.trace_overhead_share"] = 1 - ratio(r.window.ops/r.window.wallS, untraced)
	out["net.loopback_rtt_us"] = r.rttUs
	out["proc.peak_rss_mb"] = r.rssMiB

	for _, stage := range serveStages {
		want := map[string]string{"stage": stage}
		after, err := promHistogram(r.after, "slicekvsd_request_stage_ns", want)
		if err != nil {
			return err
		}
		before, err := promHistogram(r.before, "slicekvsd_request_stage_ns", want)
		if err != nil {
			return err
		}
		hist := after.sub(before)
		out["slicekvsd."+stage+".us_per_req"] = hist.mean() / 1e3
		switch stage {
		case "inbox_wait", "shard_service", "reply_write":
			out["slicekvsd."+stage+".p99_us"] = hist.quantile(0.99) / 1e3
		}
	}
	class := map[string]string{"class": strconv.Itoa(serveClass)}
	latAfter, err := promHistogram(r.after, "slicekvsd_request_latency_ns", class)
	if err != nil {
		return err
	}
	latBefore, err := promHistogram(r.before, "slicekvsd_request_latency_ns", class)
	if err != nil {
		return err
	}
	out["slicekvsd.server_latency.us_per_req"] = latAfter.sub(latBefore).mean() / 1e3
	// The budget check: the nine stages should add up to about what the
	// daemon itself measures from inbox to reply.
	stageSum := 0.0
	for _, stage := range serveStages {
		stageSum += out["slicekvsd."+stage+".us_per_req"]
	}
	res.note("stage_sum_over_server_latency", ratio(stageSum, out["slicekvsd.server_latency.us_per_req"]))

	refused, servedMax, servedSum := 0.0, 0.0, 0.0
	for _, s := range r.after {
		switch {
		case s.name == "slicekvsd_responses_total" && s.labels["outcome"] != "ok":
			refused += s.value
		case s.name == "slicekvsd_shard_served":
			servedMax = max(servedMax, s.value)
			servedSum += s.value
		}
	}
	out["slicekvsd.refused.count"] = refused
	out["slicekvsd.shard_imbalance"] = ratio(servedMax, servedSum/serveShards)

	if err := kvsKernels(h, out); err != nil {
		return err
	}
	if spec.write {
		out["wal.pending.max_recs"] = r.wal.pendingMax
		out["wal.flush_lag.max_ms"] = r.wal.lagMaxS * 1e3
		out["wal.disk_bytes_per_set"] = ratio(r.wal.diskMax, r.window.ops)
		if err := walKernels(h, out); err != nil {
			return err
		}
	}
	return nil
}
