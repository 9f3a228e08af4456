package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sliceaware/internal/experiments"
)

// eventLog records, in order, what the tasks and the output writers
// did. It is safe for concurrent use.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

var footerTime = regexp.MustCompile(`\((\S+) in [^)]*\)`)

// writer logs every write as one event, prefix first, with the host time
// of "(ID in T)" footers dropped.
func (l *eventLog) writer(prefix string) io.Writer {
	return writerFunc(func(p []byte) (int, error) {
		l.add(prefix + footerTime.ReplaceAllString(string(p), "($1)"))
		return len(p), nil
	})
}

func fakeTable(id string) *experiments.Table {
	return &experiments.Table{ID: id, Title: "fake", Header: []string{"id"}, Rows: [][]string{{id}}}
}

// printed is the stdout event of a successful fake task.
func printed(id string) string {
	var b strings.Builder
	fakeTable(id).Fprint(&b)
	return "out " + b.String() + "(" + id + ")\n\n"
}

func checkEvents(t *testing.T, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n%q\nwant:\n%q", got, want)
	}
}

func TestRunTasksPrintsInListOrderWhateverTheCompletionOrder(t *testing.T) {
	const n = 4
	var log eventLog
	release := make([]chan struct{}, n)
	finished := make([]chan struct{}, n)
	var tasks []task
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("X%d", i)
		release[i], finished[i] = make(chan struct{}), make(chan struct{})
		tasks = append(tasks, task{id: id, run: func(experiments.Env, io.Writer) (*experiments.Table, error) {
			defer close(finished[i])
			<-release[i]
			log.add("done " + id)
			return fakeTable(id), nil
		}})
	}
	// Let the tasks finish last to first.
	go func() {
		for i := n - 1; i >= 0; i-- {
			close(release[i])
			<-finished[i]
		}
	}()
	if exit := runTasks(tasks, experiments.Env{Jobs: n}, "", log.writer("out "), log.writer("err ")); exit != 0 {
		t.Fatalf("exit = %d, want 0", exit)
	}
	checkEvents(t, log.snapshot(), []string{
		"done X3", "done X2", "done X1", "done X0",
		printed("X0"), printed("X1"), printed("X2"), printed("X3"),
	})
}

func TestRunTasksFailedTaskPrintsErrorInPlaceAndOthersStillPrint(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var log eventLog
			ok := func(id string) task {
				return task{id: id, run: func(experiments.Env, io.Writer) (*experiments.Table, error) { return fakeTable(id), nil }}
			}
			tasks := []task{
				ok("A"),
				{id: "B", run: func(_ experiments.Env, w io.Writer) (*experiments.Table, error) {
					fmt.Fprintln(w, "partial")
					return nil, errors.New("boom")
				}},
				ok("C"),
			}
			if exit := runTasks(tasks, experiments.Env{Jobs: workers}, "", log.writer("out "), log.writer("err ")); exit != 1 {
				t.Fatalf("exit = %d, want 1", exit)
			}
			checkEvents(t, log.snapshot(), []string{
				printed("A"), "out partial\n", "err reproduce: B failed: boom\n", printed("C"),
			})
		})
	}
}

func TestRunTasksOneWorkerFinishesEachTaskBeforeTheNextStarts(t *testing.T) {
	var log eventLog
	dir := t.TempDir()
	var tasks []task
	for _, id := range []string{"A", "B", "C"} {
		tasks = append(tasks, task{id: id, run: func(experiments.Env, io.Writer) (*experiments.Table, error) {
			entries, err := os.ReadDir(dir)
			if err != nil {
				return nil, err
			}
			dumped := []string{}
			for _, e := range entries {
				dumped = append(dumped, e.Name())
			}
			log.add("start " + id + " after " + strings.Join(dumped, ","))
			return fakeTable(id), nil
		}})
	}
	if exit := runTasks(tasks, experiments.Env{Jobs: 1}, dir, log.writer("out "), log.writer("err ")); exit != 0 {
		t.Fatalf("exit = %d, want 0", exit)
	}
	checkEvents(t, log.snapshot(), []string{
		"start A after ", printed("A"),
		"start B after a.prom,a.timeline.json,a.trace.json", printed("B"),
		"start C after a.prom,a.timeline.json,a.trace.json,b.prom,b.timeline.json,b.trace.json", printed("C"),
	})
}

func TestRunTasksGivesEachTaskItsOwnCollector(t *testing.T) {
	dir := t.TempDir()
	env := experiments.Env{Seed: 7, Jobs: 3, Scale: experiments.Full}
	var tasks []task
	for _, id := range []string{"A", "B", "C"} {
		tasks = append(tasks, task{id: id, run: func(got experiments.Env, _ io.Writer) (*experiments.Table, error) {
			if got.Seed != env.Seed || got.Jobs != env.Jobs || got.Scale != env.Scale || got.Telemetry == nil {
				return nil, fmt.Errorf("task %s ran on %+v, want %+v with a collector", id, got, env)
			}
			got.Telemetry.Registry().Counter("task_"+id+"_total", "runs of task "+id).Inc(0)
			got.Telemetry.Flight().Drop(1, 64, 0, 10, "task"+id)
			return fakeTable(id), nil
		}})
	}
	var stdout, stderr bytes.Buffer
	if exit := runTasks(tasks, env, dir, &stdout, &stderr); exit != 0 {
		t.Fatalf("exit = %d, stderr %q", exit, stderr.String())
	}
	for _, id := range []string{"A", "B", "C"} {
		prom, err := os.ReadFile(filepath.Join(dir, strings.ToLower(id)+".prom"))
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []string{"A", "B", "C"} {
			if has := strings.Contains(string(prom), "task_"+other+"_total 1"); has != (other == id) {
				t.Errorf("%s.prom reports task %s: %v\n%s", id, other, has, prom)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, strings.ToLower(id)+".timeline.json")); err != nil {
			t.Error(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, strings.ToLower(id)+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace []struct{ Name string }
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("%s.trace.json does not parse: %v\n%s", id, err, raw)
		}
		if len(trace) != 1 || trace[0].Name != "drop:task"+id {
			t.Errorf("%s.trace.json = %+v, want only task %s's drop", id, trace, id)
		}
	}
}

// fakeNFV is a stand-in for Figure13/Figure14 that counts its calls. When
// gate is non-nil, the first call waits for it to close.
func fakeNFV(calls *atomic.Int32, gbps float64, gate <-chan struct{}) nfvRunner {
	return func(experiments.Env) (*experiments.NFVLatencyResult, *experiments.Table, error) {
		if calls.Add(1) == 1 && gate != nil {
			<-gate
		}
		lat := []float64{1000, 2000, 3000}
		res := &experiments.NFVLatencyResult{BaseLat: lat, CDLat: lat, BaseGbps: gbps, CDGbps: gbps + 0.5}
		return res, fakeTable(fmt.Sprintf("NFV%.0f", gbps)), nil
	}
}

func TestT3ComputesUnscheduledFiguresAndReusesScheduledOnes(t *testing.T) {
	for _, only := range [][]string{{"T3"}, {"F14", "T3"}, {"F13", "F14", "T3"}} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("only=%s/workers=%d", strings.Join(only, ","), workers), func(t *testing.T) {
				want := map[string]bool{}
				for _, id := range only {
					want[id] = true
				}
				// With several workers and F13 scheduled, hold F13's own run
				// until T3 has started, so T3 has to wait for it.
				var gate chan struct{}
				if workers > 1 && want["F13"] {
					gate = make(chan struct{})
				}
				var calls13, calls14 atomic.Int32
				tasks := plan(want, false, fakeNFV(&calls13, 10, gate), fakeNFV(&calls14, 20, nil))
				var ids []string
				for i, tk := range tasks {
					ids = append(ids, tk.id)
					if tk.id == "T3" && gate != nil {
						run := tk.run
						tasks[i].run = func(env experiments.Env, w io.Writer) (*experiments.Table, error) {
							close(gate)
							return run(env, w)
						}
					}
				}
				if !reflect.DeepEqual(ids, only) {
					t.Fatalf("planned %v, want %v", ids, only)
				}
				var stdout, stderr bytes.Buffer
				if exit := runTasks(tasks, experiments.Env{Jobs: workers}, "", &stdout, &stderr); exit != 0 || stderr.Len() != 0 {
					t.Fatalf("exit = %d, stderr %q", exit, stderr.String())
				}
				if n13, n14 := calls13.Load(), calls14.Load(); n13 != 1 || n14 != 1 {
					t.Fatalf("F13 computed %d times, F14 %d times; want once each", n13, n14)
				}
				var t3 strings.Builder
				_, tab := experiments.Table3From(
					&experiments.NFVLatencyResult{BaseGbps: 10, CDGbps: 10.5},
					&experiments.NFVLatencyResult{BaseGbps: 20, CDGbps: 20.5},
				)
				tab.Fprint(&t3)
				if !strings.Contains(stdout.String(), t3.String()) {
					t.Fatalf("T3 not derived from the fake figures:\n%s", stdout.String())
				}
			})
		}
	}
}

func TestPlanFollowsTheCatalog(t *testing.T) {
	ids := func(tasks []task) []string {
		var out []string
		for _, tk := range tasks {
			out = append(out, tk.id)
		}
		return out
	}
	var catalog, paper []string
	for _, e := range experiments.Catalog() {
		catalog = append(catalog, e.ID)
		if e.Kind == "paper" {
			paper = append(paper, e.ID)
		}
	}
	if got := ids(plan(nil, true, nil, nil)); !reflect.DeepEqual(got, catalog) {
		t.Fatalf("-all plans %v, want the catalog in its order %v", got, catalog)
	}
	if got := ids(plan(nil, false, nil, nil)); !reflect.DeepEqual(got, paper) {
		t.Fatalf("default run plans %v, want the paper artifacts %v", got, paper)
	}
}
