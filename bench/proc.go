package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one process the harness started, in a process group of its own.
// A goroutine reaps it as soon as it exits, so exited() is cheap and a
// daemon that dies during start-up is noticed at once.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's result; read after done
}

// children tracks every child not yet reaped, so that no exit path — error,
// SIGINT, panic — leaves a daemon behind holding a port and a core.
var children = struct {
	sync.Mutex
	live map[*child]struct{}
}{live: map[*child]struct{}{}}

// startChild starts cmd and registers it. cmd must not use StdoutPipe or
// StderrPipe: the reaping goroutine calls Wait, which would close them
// under the reader.
func startChild(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.live[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// wait blocks until the child has exited, killing its group if that takes
// longer than patience, and returns Wait's error (nil on exit 0).
func (c *child) wait(patience time.Duration) error {
	select {
	case <-c.done:
		return c.err
	case <-time.After(patience):
		c.kill()
		<-c.done
		return fmt.Errorf("%s did not exit within %v and was killed", c.cmd.Path, patience)
	}
}

// kill SIGKILLs the child's process group.
func (c *child) kill() {
	if err := syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL); err != nil {
		_ = c.cmd.Process.Kill() // group already gone; the process itself may not be
	}
}

// killChildren SIGKILLs every process group still registered and waits for
// each to be reaped. Safe to call more than once.
func killChildren() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
		<-c.done
	}
}

// killChildrenOnSignal kills the registered groups and exits when the
// harness itself is interrupted. cleanup removes the temp directories. The
// returned function stops listening.
func killChildrenOnSignal(cleanup func()) (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		killChildren()
		cleanup()
		fmt.Fprintf(os.Stderr, "bench: %v: children killed\n", s)
		os.Exit(130)
	}()
	return func() {
		signal.Stop(sigc)
		close(sigc)
	}
}

// procCPU reads a live process's CPU seconds as the sum of its threads'
// on-CPU time in /proc/<pid>/task/*/schedstat. That counter is in
// nanoseconds; utime and stime in /proc/<pid>/stat tick at 10 ms, which is
// 4 % of what a daemon burns in a quarter-second slice.
func procCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("schedstat of %d: no task found (%v)", pid, err)
	}
	var ns uint64
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procPeakRSSMiB reads a live process's high-water RSS (VmHWM).
func procPeakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM of %d: not found", pid)
}

// selfCPU is the harness's own user+sys CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// exitedUsage extracts user+sys CPU seconds and peak RSS (MiB) of a reaped
// child from its ProcessState.
func exitedUsage(ps *os.ProcessState) (cpuS, rssMiB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}
