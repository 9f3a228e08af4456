package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// waitLimit bounds every wait in these tests; none is expected to come
// near it. Nothing here sleeps: restarts are observed through resume,
// restore, OnStateChange and the Sleep seam, each reporting on a channel.
const waitLimit = 10 * time.Second

func recv[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(waitLimit):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// inJitter reports whether d is the backoff want plus at most the jitter.
func inJitter(d, want time.Duration) bool {
	return d >= want && d <= want+time.Duration(backoffJitter*float64(want))
}

// event is one OnStateChange call.
type event struct {
	id       int
	up       bool
	restarts int
	err      error
}

func recordEvents(cfg *SupervisorConfig) <-chan event {
	events := make(chan event, 1024) // room for every event one test provokes
	cfg.OnStateChange = func(id int, up bool, restarts int, err error) {
		events <- event{id, up, restarts, err}
	}
	return events
}

func noEvent(t *testing.T, events <-chan event, when string) {
	t.Helper()
	select {
	case ev := <-events:
		t.Fatalf("%s: unexpected event %+v", when, ev)
	default:
	}
}

// TestSupervisorRestartsPanickedWorker reports recovered panics the way
// slicekvsd does and checks each restart's backoff: it doubles from
// BackoffBase up to the 2 s cap, plus at most the jitter.
func TestSupervisorRestartsPanickedWorker(t *testing.T) {
	sleeps := make(chan time.Duration, 8)
	resumed := make(chan struct{}, 8)
	sup := NewSupervisor(SupervisorConfig{
		BackoffBase: 500 * time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps <- d },
	})
	defer sup.Stop()
	sup.Add(0, "shard-0", nil, func() { resumed <- struct{}{} })
	crash := func() {
		defer func() {
			if p := recover(); p != nil {
				sup.Fail(0, fmt.Errorf("worker panic: %v", p))
			}
		}()
		panic("chaos")
	}

	want := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 2 * time.Second}
	for i, w := range want {
		crash()
		recv(t, resumed, "the worker to be resumed")
		if d := recv(t, sleeps, "the backoff"); !inJitter(d, w) {
			t.Fatalf("backoff %d = %v, want %v plus at most %.0f%%", i, d, w, 100*backoffJitter)
		}
	}
	st := sup.Snapshot()
	if len(st) != 1 || !st[0].Up || st[0].Restarts != uint64(len(want)) {
		t.Fatalf("snapshot %+v, want up after %d restarts", st, len(want))
	}
	if !strings.Contains(st[0].LastErr, "chaos") {
		t.Fatalf("LastErr = %q, want the panic text", st[0].LastErr)
	}
}

func TestSupervisorCleanStop(t *testing.T) {
	cfg := SupervisorConfig{}
	events := recordEvents(&cfg)
	sup := NewSupervisor(cfg)
	sup.Add(0, "w", func() error {
		t.Error("restore ran after Stop")
		return nil
	}, func() { t.Error("resume ran after Stop") })
	sup.Stop()
	sup.Stop() // idempotent

	// A Fail after Stop records the worker down and schedules nothing.
	sup.Fail(0, errors.New("late crash"))
	sup.Stop() // would wait for a restart, had one been scheduled
	noEvent(t, events, "Fail after Stop")
	if st := sup.Snapshot(); sup.Down() != 1 || st[0].Up || st[0].LastErr != "late crash" {
		t.Fatalf("after a Fail past Stop: Down() = %d, snapshot %+v, want the worker down", sup.Down(), st)
	}
}

// TestSupervisorStopDuringBackoff parks a restart in an hour-long backoff
// on the default sleep: Stop cancels it and returns at once, and the
// worker stays down without being restored.
func TestSupervisorStopDuringBackoff(t *testing.T) {
	sup := NewSupervisor(SupervisorConfig{BackoffBase: time.Hour})
	sup.Add(0, "w", func() error {
		t.Error("restore ran after Stop")
		return nil
	}, func() { t.Error("resume ran after Stop") })
	sup.Fail(0, errors.New("crash"))

	stopped := make(chan struct{})
	go func() { sup.Stop(); close(stopped) }()
	recv(t, stopped, "Stop to return") // within waitLimit, not the hour
	if sup.Down() != 1 {
		t.Fatalf("Down() = %d after a cancelled restart, want 1", sup.Down())
	}
}

func TestSupervisorRestoreRunsBeforeUp(t *testing.T) {
	cfg := SupervisorConfig{Sleep: func(time.Duration) {}}
	order := make(chan string, 8)
	cfg.OnStateChange = func(id int, up bool, restarts int, err error) {
		if up {
			order <- "up"
		} else {
			order <- "down"
		}
	}
	sup := NewSupervisor(cfg)
	defer sup.Stop()
	sup.Add(0, "shard-0", func() error {
		if sup.Down() != 1 {
			t.Error("restore ran while the worker was marked up")
		}
		order <- "restore"
		return nil
	}, func() { order <- "resume" })

	sup.Fail(0, errors.New("crash"))
	for _, want := range []string{"down", "restore", "up", "resume"} {
		if got := recv(t, order, want); got != want {
			t.Fatalf("event %q, want %q: restore runs while the worker is down, resume once it is up", got, want)
		}
	}
	if sup.Down() != 0 {
		t.Fatalf("Down() = %d after the restart, want 0", sup.Down())
	}
}

func TestSupervisorFailingRestoreBacksOffWithoutExtraDownEvents(t *testing.T) {
	sleeps := make(chan time.Duration, 8)
	resumed := make(chan struct{}, 1)
	cfg := SupervisorConfig{
		BackoffBase: time.Millisecond,
		Sleep:       func(d time.Duration) { sleeps <- d },
	}
	events := recordEvents(&cfg)
	sup := NewSupervisor(cfg)
	defer sup.Stop()
	restores := 0
	sup.Add(0, "shard-0", func() error {
		if restores++; restores < 3 {
			return errors.New("snapshot unreadable")
		}
		return nil
	}, func() { resumed <- struct{}{} })

	sup.Fail(0, errors.New("crash"))
	recv(t, resumed, "the worker to be resumed")
	if restores != 3 {
		t.Fatalf("restore ran %d times, want 3", restores)
	}
	// Each failed restore is one more consecutive failure: 1, 2, 4 ms.
	for i, w := range []time.Duration{1, 2, 4} {
		if d := recv(t, sleeps, "a backoff"); !inJitter(d, w*time.Millisecond) {
			t.Fatalf("backoff %d = %v, want %v plus jitter", i, d, w*time.Millisecond)
		}
	}
	// One crash, one recovery: failing restores must not be reported as
	// extra down transitions, or a count kept from them double-counts.
	if ev := recv(t, events, "the down event"); ev.up || ev.err == nil {
		t.Fatalf("first event %+v, want down with its cause", ev)
	}
	if ev := recv(t, events, "the up event"); !ev.up || ev.restarts != 1 {
		t.Fatalf("second event %+v, want up after 1 restart", ev)
	}
	noEvent(t, events, "after the recovery")
}

func TestSupervisorBackoffJitterIsSeededAndBounded(t *testing.T) {
	base := []time.Duration{1, 2, 4, 8, 16, 32} // milliseconds, pre-jitter
	collect := func() []time.Duration {
		sleeps := make(chan time.Duration, len(base))
		resumed := make(chan struct{}, 1)
		sup := NewSupervisor(SupervisorConfig{
			BackoffBase: time.Millisecond,
			Sleep:       func(d time.Duration) { sleeps <- d },
		})
		defer sup.Stop()
		sup.Add(0, "w", nil, func() { resumed <- struct{}{} })
		var ds []time.Duration
		for range base {
			sup.Fail(0, errors.New("crash"))
			recv(t, resumed, "the worker to be resumed")
			ds = append(ds, recv(t, sleeps, "the backoff"))
		}
		return ds
	}

	a := collect()
	jittered := false
	for i, b := range base {
		if !inJitter(a[i], b*time.Millisecond) {
			t.Fatalf("sleep[%d] = %v outside [%v, 1.2×]", i, a[i], b*time.Millisecond)
		}
		if a[i] != b*time.Millisecond {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jitter never moved any sleep off the base backoff")
	}
	// The stream is seeded: a second supervisor sleeps the same schedule.
	b := collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different schedules: %v vs %v", a, b)
		}
	}
}

// TestSupervisorTransitionTable drives seeded random sequences of Fail,
// restore outcomes and Stop through a supervisor and checks every state
// change it reports against the table of legal edges, with the input
// that may cause each. A failed restore is the one legal edge that does
// not change the state, so it is never reported.
func TestSupervisorTransitionTable(t *testing.T) {
	type edge struct{ from, to bool } // true = up
	legal := map[edge]string{
		{true, false}:  "fail",
		{false, false}: "restore failed",
		{false, true}:  "restore ok",
	}
	const workers, steps = 3, 300

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := SupervisorConfig{Sleep: func(time.Duration) {}}
		events := recordEvents(&cfg)
		sup := NewSupervisor(cfg)
		restoring := make(chan int, workers)
		resumed := make(chan int, steps)
		var verdict [workers]chan error
		up := make([]bool, workers) // the model
		ups := make([]int, workers) // up edges reported, per worker
		resumes := make([]int, workers)
		for id := range verdict {
			id := id
			verdict[id] = make(chan error)
			up[id] = true
			sup.Add(id, fmt.Sprint("w", id), func() error {
				restoring <- id
				return <-verdict[id]
			}, func() { resumed <- id })
		}

		// check takes the events reported so far and requires each to be
		// a legal edge caused by input, then applies it to the model.
		check := func(input string) {
			t.Helper()
			for {
				select {
				case ev := <-events:
					e := edge{up[ev.id], ev.up}
					if e.from == e.to {
						t.Fatalf("seed %d: %s reported a non-change %+v for worker %d", seed, input, e, ev.id)
					}
					if cause, ok := legal[e]; !ok || cause != input {
						t.Fatalf("seed %d: worker %d edge %+v on %q, want one of %v", seed, ev.id, e, input, legal)
					}
					up[ev.id] = ev.up
					if ev.up {
						ups[ev.id]++
					}
				default:
					return
				}
			}
		}
		checkDown := func() {
			t.Helper()
			n := 0
			for _, u := range up {
				if !u {
					n++
				}
			}
			if got := sup.Down(); got != n {
				t.Fatalf("seed %d: Down() = %d, model has %d down", seed, got, n)
			}
		}
		// awaitRestore waits for worker id's restore to start.
		awaitRestore := func(id int) {
			t.Helper()
			if got := recv(t, restoring, "a restore to start"); got != id {
				t.Fatalf("seed %d: restore started for worker %d, want %d", seed, got, id)
			}
		}

		stopAt := rng.Intn(steps)
		for step := 0; step < stopAt; step++ {
			id := rng.Intn(workers)
			if up[id] || rng.Intn(4) == 0 {
				wasUp := up[id]
				sup.Fail(id, errors.New("crash"))
				if wasUp {
					// The restart goroutine reports the failure before it
					// starts the restore.
					awaitRestore(id)
				}
				check("fail")
				if up[id] {
					t.Fatalf("seed %d: worker %d still up after Fail", seed, id)
				}
			} else if rng.Intn(3) == 0 {
				verdict[id] <- errors.New("restore failed")
				awaitRestore(id)
				check("restore failed")
			} else {
				verdict[id] <- nil
				if got := recv(t, resumed, "resume"); got != id {
					t.Fatalf("seed %d: resumed worker %d, want %d", seed, got, id)
				}
				resumes[id]++
				check("restore ok")
				if !up[id] {
					t.Fatalf("seed %d: worker %d resumed without an up edge", seed, id)
				}
			}
			checkDown()
		}

		// Stop with every down worker's restore in flight: they end with
		// the workers still down, and nothing is reported from here on.
		stopped := make(chan struct{})
		go func() { sup.Stop(); close(stopped) }()
		<-sup.stop
		for id := range up {
			if !up[id] {
				var err error
				if rng.Intn(2) == 0 {
					err = errors.New("restore failed")
				}
				verdict[id] <- err
			}
		}
		recv(t, stopped, "Stop to return")
		noEvent(t, events, "a restore finished during Stop")
		checkDown()
		for id := range up {
			sup.Fail(id, errors.New("late crash"))
			up[id] = false
		}
		sup.Stop()
		noEvent(t, events, "Fail after Stop")
		checkDown()
		select {
		case id := <-restoring:
			t.Fatalf("seed %d: worker %d restored after Stop", seed, id)
		case id := <-resumed:
			t.Fatalf("seed %d: worker %d resumed after Stop", seed, id)
		default:
		}
		for id := range ups {
			if resumes[id] != ups[id] {
				t.Fatalf("seed %d: worker %d resumed %d times for %d up edges", seed, id, resumes[id], ups[id])
			}
		}
	}
}
