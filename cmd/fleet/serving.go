package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sliceaware/internal/scenario"
)

// runServing executes a daemon+loadgen(+statsink) trio: start the
// sink, start the daemon, wait for /healthz = ready, drive the load
// generator to completion, then SIGTERM the daemon and assert the
// graceful drain (ready -> draining -> exit 0, and a checkpoint whose
// transitions end in stopped when the daemon's flags name one).
//
// Address wiring is orchestrator-owned: daemon addr/http and statsink
// listen come from the scenario or are auto-assigned loopback ports,
// loadgen's -addr and both -sink-addr flags are always derived.
func (o *orchestrator) runServing(sc *scenario.Scenario, dir string, timeout time.Duration) (procOutcome, string) {
	sv := sc.Serving
	deadline := time.Now().Add(timeout)
	fail := func(format string, a ...any) (procOutcome, string) {
		return procOutcome{exitCode: 1}, fmt.Sprintf(format, a...)
	}

	addr, err := resolveAddr(sv.DaemonFlags["addr"])
	if err != nil {
		return procOutcome{startErr: err}, "daemon addr: " + err.Error()
	}
	httpAddr, err := resolveAddr(sv.DaemonFlags["http"])
	if err != nil {
		return procOutcome{startErr: err}, "daemon http addr: " + err.Error()
	}

	// Statsink first, so the daemon's first tick already has a sink.
	var sink *trioProc
	var sinkAddr string
	if sv.Statsink {
		if sinkAddr, err = resolveAddr(sv.StatsinkFlags["listen"]); err != nil {
			return procOutcome{startErr: err}, "statsink listen: " + err.Error()
		}
		flags := cloneFlags(sv.StatsinkFlags)
		flags["listen"] = sinkAddr
		if _, ok := flags["out"]; !ok {
			flags["out"] = "events.jsonl"
		}
		sink, err = o.startTrioProc("statsink", flags, dir, sc.Env)
		if err != nil {
			return procOutcome{startErr: err}, "statsink: " + err.Error()
		}
		defer sink.reap()
	}

	dflags := cloneFlags(sv.DaemonFlags)
	dflags["addr"] = addr
	dflags["http"] = httpAddr
	if sv.Statsink {
		dflags["sink-addr"] = sinkAddr
	}
	daemon, err := o.startTrioProc("slicekvsd", dflags, dir, sc.Env)
	if err != nil {
		return procOutcome{startErr: err}, "slicekvsd: " + err.Error()
	}
	defer daemon.reap()

	// Readiness: /healthz must answer "ready" before load starts.
	readyBy := time.Now().Add(sv.ReadyTimeout)
	if readyBy.After(deadline) {
		readyBy = deadline
	}
	for {
		if state := healthz(httpAddr); state == "ready" {
			break
		}
		if out, exited := daemon.exited(); exited {
			return out, "daemon exited before becoming ready: " + describeOutcome(out)
		}
		if time.Now().After(readyBy) {
			killGroup(daemon.cmd)
			if time.Now().After(deadline) {
				return procOutcome{timedOut: true}, "timeout before daemon became ready"
			}
			return fail("daemon never became ready within %v", sv.ReadyTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}

	lflags := cloneFlags(sv.LoadgenFlags)
	lflags["addr"] = addr
	if sv.Statsink {
		lflags["sink-addr"] = sinkAddr
	}
	if _, ok := lflags["seed"]; !ok {
		lflags["seed"] = strconv.FormatInt(sc.Seed, 10)
	}
	loadgen, err := o.startTrioProcNamed("slicekvs-loadgen", lflags, dir, sc.Env, "stdout.txt", "stderr.txt")
	if err != nil {
		killGroup(daemon.cmd)
		return procOutcome{startErr: err}, "loadgen: " + err.Error()
	}
	lgOut, done := loadgen.waitUntil(deadline)
	if !done {
		killGroup(loadgen.cmd)
		killGroup(daemon.cmd)
		loadgen.reap()
		return procOutcome{timedOut: true}, "timeout during load phase"
	}
	if s := lgOut.status(); s != StatusPass {
		killGroup(daemon.cmd)
		return lgOut, "loadgen " + describeOutcome(lgOut)
	}

	// Graceful drain: SIGTERM, observe draining, then a 0 exit.
	termSignal(daemon.cmd)
	sawDraining := false
	drainBy := time.Now().Add(sv.DrainTimeout)
	if drainBy.After(deadline) {
		drainBy = deadline
	}
	for !sawDraining {
		state := healthz(httpAddr)
		if state == "draining" {
			sawDraining = true
			break
		}
		if _, exited := daemon.exited(); exited || state == "" {
			break // already down: lame-duck shorter than our poll
		}
		if time.Now().After(drainBy) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	dOut, done := daemon.waitUntil(drainBy)
	if !done {
		killGroup(daemon.cmd)
		daemon.reap()
		if time.Now().After(deadline) {
			return procOutcome{timedOut: true}, "timeout waiting for drain"
		}
		return fail("daemon did not exit within %v of SIGTERM", sv.DrainTimeout)
	}
	if s := dOut.status(); s != StatusPass {
		return dOut, "daemon drain " + describeOutcome(dOut)
	}
	if sv.ExpectDrain && !sawDraining {
		return fail("never observed /healthz = draining after SIGTERM")
	}

	if sink != nil {
		termSignal(sink.cmd)
		if _, done := sink.waitUntil(time.Now().Add(5 * time.Second)); !done {
			killGroup(sink.cmd)
		}
	}
	if cp, ok := sv.DaemonFlags["checkpoint"]; ok {
		if !filepath.IsAbs(cp) {
			cp = filepath.Join(dir, cp)
		}
		if err := checkStopped(cp); err != nil {
			return fail("checkpoint: %v", err)
		}
	}
	return procOutcome{}, ""
}

// checkStopped requires the daemon's drain checkpoint to record the
// lifecycle ending in stopped: the drain ran to its end, not merely
// exited 0.
func checkStopped(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Transitions []string `json:"transitions"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	if n := len(doc.Transitions); n == 0 || doc.Transitions[n-1] != "stopped" {
		return fmt.Errorf("transitions %v do not end in stopped", doc.Transitions)
	}
	return nil
}

// trioProc is one supervised process of a serving trio.
type trioProc struct {
	cmd  *exec.Cmd
	done chan procOutcome
	out  *procOutcome
	logs []io.Closer
}

func (o *orchestrator) startTrioProc(tool string, flags map[string]string, dir string, env map[string]string) (*trioProc, error) {
	return o.startTrioProcNamed(tool, flags, dir, env, tool+".log", tool+".log")
}

// startTrioProcNamed launches one trio member with its flag map
// rendered deterministically and stdout/stderr wired to files in the
// run directory.
func (o *orchestrator) startTrioProcNamed(tool string, flags map[string]string, dir string, env map[string]string, stdoutName, stderrName string) (*trioProc, error) {
	p := &trioProc{done: make(chan procOutcome, 1)}
	stdout, err := os.Create(filepath.Join(dir, stdoutName))
	if err != nil {
		return nil, err
	}
	p.logs = append(p.logs, stdout)
	stderr := stdout
	if stderrName != stdoutName {
		if stderr, err = os.Create(filepath.Join(dir, stderrName)); err != nil {
			stdout.Close()
			return nil, err
		}
		p.logs = append(p.logs, stderr)
	}

	argv := append([]string{o.bin(tool)}, scenario.RenderArgs(flags)...)
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.Env = mergedEnv(env)
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		p.close()
		return nil, err
	}
	p.cmd = cmd
	go func() {
		var out procOutcome
		if err := cmd.Wait(); err != nil {
			out.signaled, out.signal = exitSignaled(err)
			if ee, ok := err.(*exec.ExitError); ok {
				out.exitCode = ee.ExitCode()
			} else {
				out.startErr = err
			}
		}
		p.done <- out
	}()
	return p, nil
}

func (p *trioProc) close() {
	for _, c := range p.logs {
		c.Close()
	}
}

// exited polls for completion without blocking.
func (p *trioProc) exited() (procOutcome, bool) {
	if p.out != nil {
		return *p.out, true
	}
	select {
	case out := <-p.done:
		p.out = &out
		return out, true
	default:
		return procOutcome{}, false
	}
}

// waitUntil blocks for completion up to the deadline.
func (p *trioProc) waitUntil(deadline time.Time) (procOutcome, bool) {
	if p.out != nil {
		return *p.out, true
	}
	wait := time.Until(deadline)
	if wait < 0 {
		wait = 0
	}
	select {
	case out := <-p.done:
		p.out = &out
		return out, true
	case <-time.After(wait):
		return procOutcome{}, false
	}
}

// reap force-kills a still-running process and closes its log files.
func (p *trioProc) reap() {
	if _, exited := p.exited(); !exited {
		killGroup(p.cmd)
		<-p.done
	}
	p.close()
}

func cloneFlags(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// resolveAddr returns the configured address, or an auto-assigned free
// loopback port when the scenario left it empty or said "auto".
func resolveAddr(configured string) (string, error) {
	if configured != "" && configured != "auto" {
		return configured, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// healthz fetches the daemon's health state ("" when unreachable).
func healthz(httpAddr string) string {
	client := http.Client{Timeout: 500 * time.Millisecond}
	resp, err := client.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		return ""
	}
	// The endpoint prints the state with a trailing newline; an empty
	// return is reserved for "unreachable", so trim before comparing.
	return strings.TrimSpace(string(body))
}
