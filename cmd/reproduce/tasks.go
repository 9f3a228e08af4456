package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sliceaware/internal/experiments"
	"sliceaware/internal/parallel"
	"sliceaware/internal/telemetry"
)

// task is one selected experiment. run may print extra tables or plots to
// w before returning the experiment's main table.
type task struct {
	id  string
	run func(env experiments.Env, w io.Writer) (*experiments.Table, error)
}

// exec runs t on env and returns everything it prints: the extra output,
// the main table and the "(ID in T)" footer, or the partial output and the
// error.
func (t task) exec(env experiments.Env) ([]byte, error) {
	var buf bytes.Buffer
	start := time.Now()
	tab, err := t.run(env, &buf)
	if err == nil {
		tab.Fprint(&buf)
		fmt.Fprintf(&buf, "(%s in %v)\n\n", t.id, time.Since(start).Round(time.Millisecond))
	}
	return buf.Bytes(), err
}

// runTasks runs tasks on up to env.Jobs goroutines (0 = GOMAXPROCS),
// dispatching them in list order, and writes each task's output to stdout
// as soon as it and every task before it are done, so the output is the
// same for every worker count. A failed task prints its error to stderr
// at its position and the others still run and print. Each task runs on
// its own copy of env. With a metricsDir, each copy carries a collector
// of its own, which runTasks dumps into metricsDir once the task has
// printed, so every dump covers one experiment only. runTasks returns the
// exit status: 1 if any task failed, 0 otherwise.
func runTasks(tasks []task, env experiments.Env, metricsDir string, stdout, stderr io.Writer) int {
	type result struct {
		env  experiments.Env
		out  []byte
		err  error
		done chan struct{}
	}
	results := make([]result, len(tasks))
	run := func(i int) {
		r := &results[i]
		r.env = env
		if metricsDir != "" {
			r.env.Telemetry = telemetry.New(telemetry.Config{Shards: 8})
		}
		r.out, r.err = tasks[i].exec(r.env)
	}
	if env.Jobs != 1 {
		for i := range results {
			results[i].done = make(chan struct{})
		}
		pool := make(chan struct{})
		go func() {
			defer close(pool)
			parallel.Map(env.Jobs, len(tasks), func(i int) (struct{}, error) {
				run(i)
				close(results[i].done)
				return struct{}{}, nil
			})
		}()
		defer func() { <-pool }()
	}
	exit := 0
	for i, t := range tasks {
		r := &results[i]
		if r.done != nil {
			<-r.done
		} else {
			run(i)
		}
		stdout.Write(r.out)
		if r.err != nil {
			fmt.Fprintf(stderr, "reproduce: %s failed: %v\n", t.id, r.err)
			exit = 1
		}
		if metricsDir != "" {
			if err := dumpTelemetry(metricsDir, t.id, r.env.Telemetry); err != nil {
				fmt.Fprintf(stderr, "reproduce: telemetry dump %s: %v\n", t.id, err)
			}
		}
		*r = result{} // drop the printed output and the dumped collector
	}
	return exit
}

// dumpTelemetry writes one experiment's collector into dir: its metrics as
// Prometheus text (<id>.prom) and its slice heat timeline
// (<id>.timeline.json).
func dumpTelemetry(dir, id string, c *telemetry.Collector) error {
	base := filepath.Join(dir, strings.ToLower(id))
	if err := writeTo(base+".prom", c.Registry().WritePrometheus); err != nil {
		return err
	}
	return writeTo(base+".timeline.json", c.Timeline().WriteJSON)
}

// writeTo renders through fn into path, creating/truncating it.
func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nfvRunner computes one of the two NFV latency figures (F13, F14).
type nfvRunner func(experiments.Env) (*experiments.NFVLatencyResult, *experiments.Table, error)

// nfvFigure is F13 or F14 as Table 3, which is derived from both, sees
// it. When the figure's own task is scheduled, T3 waits for it and reuses
// its result: in-order dispatch has started that task before T3's, so the
// wait never blocks a worker on an undispatched task. When it is not
// scheduled, T3 computes the figure itself.
type nfvFigure struct {
	compute nfvRunner
	res     *experiments.NFVLatencyResult
	done    chan struct{} // closed when the figure's task finished; nil when it is not scheduled
}

func newNFVFigure(compute nfvRunner, scheduled bool) *nfvFigure {
	f := &nfvFigure{compute: compute}
	if scheduled {
		f.done = make(chan struct{})
	}
	return f
}

// own is the figure's own task: it computes the figure and publishes the
// result to T3.
func (f *nfvFigure) own(env experiments.Env) (*experiments.Table, error) {
	defer close(f.done)
	res, t, err := f.compute(env)
	f.res = res
	return t, err
}

// result is T3's view of the figure: the scheduled task's result, or a
// computation of its own when the figure was not scheduled or its task
// failed.
func (f *nfvFigure) result(env experiments.Env) (*experiments.NFVLatencyResult, error) {
	if f.done != nil {
		<-f.done
	}
	if f.res != nil {
		return f.res, nil
	}
	res, _, err := f.compute(env)
	return res, err
}
