package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"sliceaware/internal/experiments"
	"sliceaware/internal/parallel"
)

// task is one selected experiment. run may print extra tables or plots to
// w before returning the experiment's main table.
type task struct {
	id  string
	run func(w io.Writer) (*experiments.Table, error)
}

// exec runs t and returns everything it prints: the extra output, the main
// table and the "(ID in T)" footer, or the partial output and the error.
func (t task) exec() ([]byte, error) {
	var buf bytes.Buffer
	start := time.Now()
	tab, err := t.run(&buf)
	if err == nil {
		tab.Fprint(&buf)
		fmt.Fprintf(&buf, "(%s in %v)\n\n", t.id, time.Since(start).Round(time.Millisecond))
	}
	return buf.Bytes(), err
}

// runTasks runs tasks on up to workers goroutines, dispatching them in list
// order, and writes each task's output to stdout as soon as it and every
// task before it are done, so the output is the same for every worker
// count. A failed task prints its error to stderr at its position and the
// others still run and print. after, if non-nil, runs on the calling
// goroutine once a task has printed; with one worker each task runs,
// prints and runs after before the next one starts. runTasks returns the
// exit status: 1 if any task failed, 0 otherwise.
func runTasks(tasks []task, workers int, stdout, stderr io.Writer, after func(id string)) int {
	type result struct {
		out  []byte
		err  error
		done chan struct{}
	}
	results := make([]result, len(tasks))
	if workers > 1 {
		for i := range results {
			results[i].done = make(chan struct{})
		}
		pool := make(chan struct{})
		go func() {
			defer close(pool)
			parallel.Map(workers, len(tasks), func(i int) (struct{}, error) {
				results[i].out, results[i].err = tasks[i].exec()
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
			r.out, r.err = t.exec()
		}
		stdout.Write(r.out)
		if r.err != nil {
			fmt.Fprintf(stderr, "reproduce: %s failed: %v\n", t.id, r.err)
			exit = 1
		}
		if after != nil {
			after(t.id)
		}
	}
	return exit
}

// nfvRunner computes one of the two NFV latency figures (F13, F14).
type nfvRunner func(experiments.Scale) (*experiments.NFVLatencyResult, *experiments.Table, error)

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
func (f *nfvFigure) own(scale experiments.Scale) (*experiments.Table, error) {
	defer close(f.done)
	res, t, err := f.compute(scale)
	f.res = res
	return t, err
}

// result is T3's view of the figure: the scheduled task's result, or a
// computation of its own when the figure was not scheduled or its task
// failed.
func (f *nfvFigure) result(scale experiments.Scale) (*experiments.NFVLatencyResult, error) {
	if f.done != nil {
		<-f.done
	}
	if f.res != nil {
		return f.res, nil
	}
	res, _, err := f.compute(scale)
	return res, err
}
