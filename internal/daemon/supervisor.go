package daemon

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The restart schedule: the backoff doubles from BackoffBase per
// consecutive failure up to backoffMax, and a worker that stays up for
// resetAfter has its failures forgiven. Up to backoffJitter of each delay
// is added again as seeded random extra sleep: when one fault fells many
// workers at once, jitter spreads their restores apart instead of letting
// them replay and rewarm in lockstep (a restart-storm thundering herd).
// All workers share one jitter stream, which is what spreads them.
const (
	backoffMax    = 2 * time.Second
	resetAfter    = 5 * time.Second
	backoffJitter = 0.2
	jitterSeed    = 1
)

// RestoreFunc rebuilds a failed worker's state — the warm-restart hook.
// It runs after the backoff sleep and before the worker is marked up, so
// the worker stays observably down (and the ladder floor pinned) for the
// whole replay. A failing or panicking restore counts as another
// consecutive failure: the worker stays down and backs off again.
type RestoreFunc func() error

// SupervisorConfig tunes restart behaviour.
type SupervisorConfig struct {
	// BackoffBase is the delay before the first restart (default 10 ms).
	BackoffBase time.Duration
	// OnStateChange, if set, fires on every worker transition, after the
	// state changed: up=false when a worker fails (with its cause), up=true
	// when it is restored, just before resume. Both fire on the restart
	// goroutine, so a worker's events arrive in order and none fires once
	// Stop has returned.
	OnStateChange func(id int, up bool, restarts int, err error)
	// Sleep substitutes the backoff sleep (tests inject a recorder). The
	// default sleeps on a timer but returns early when the supervisor is
	// stopped, so shutdown never waits out a backoff.
	Sleep func(d time.Duration)
}

// WorkerStatus is one worker's supervision snapshot.
type WorkerStatus struct {
	ID       int
	Name     string
	Up       bool
	Restarts uint64 // total restarts over the worker's lifetime
	LastErr  string
}

// Supervisor is a restart scheduler for workers that run no goroutine of
// their own. The owner reports a crash with Fail; the supervisor marks
// the worker down, backs off, runs its restore hook, marks it up and
// resumes it — one short-lived goroutine per restart. This is the
// one-level supervision tree of crash-only designs: workers hold no state
// the process cannot rebuild, so "restore with backoff" is a complete
// recovery strategy.
type Supervisor struct {
	cfg  SupervisorConfig
	stop chan struct{}
	wg   sync.WaitGroup // in-flight restarts

	mu      sync.Mutex
	rng     *rand.Rand // jitter source, guarded by mu
	workers map[int]*workerState
	stopped bool
}

type workerState struct {
	name        string
	restore     RestoreFunc
	resume      func()
	up          bool
	upSince     time.Time
	consecutive int // failures since the worker last stayed up resetAfter
	restarts    uint64
	lastErr     string
}

// NewSupervisor builds a supervisor, applying defaults for zero fields.
func NewSupervisor(cfg SupervisorConfig) *Supervisor {
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.OnStateChange == nil {
		cfg.OnStateChange = func(int, bool, int, error) {}
	}
	s := &Supervisor{
		cfg:     cfg,
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(jitterSeed)),
		workers: make(map[int]*workerState),
	}
	if s.cfg.Sleep == nil {
		s.cfg.Sleep = func(d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-s.stop:
			}
		}
	}
	return s
}

// Add registers a worker as up under the given id/name. After each
// failure, restore (nil for none) rebuilds it while it is down, and
// resume hands it back to service once it is up again. Add starts no
// goroutine; it panics on an id already registered.
func (s *Supervisor) Add(id int, name string, restore RestoreFunc, resume func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.workers[id]; dup {
		panic(fmt.Sprintf("daemon: worker id %d already supervised", id))
	}
	s.workers[id] = &workerState{name: name, restore: restore, resume: resume, up: true, upSince: time.Now()}
}

// Fail reports that worker id, in service since it was added or resumed,
// crashed with cause: it is marked down and a restart is scheduled. Fail
// on a worker that is already down is a no-op (its restart is under way);
// after Stop it only records the worker down.
func (s *Supervisor) Fail(id int, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.workers[id]
	if st == nil || !st.up {
		return
	}
	if time.Since(st.upSince) >= resetAfter {
		st.consecutive = 0 // it ran healthily for a while; forgive history
	}
	st.consecutive++
	st.up = false
	st.lastErr = cause.Error()
	if !s.stopped {
		s.wg.Add(1)
		go s.restart(id, st, int(st.restarts), cause)
	}
}

// restart reports a worker's failure, then backs off, restores and
// resumes it. A failing restore is one more consecutive failure and
// another backoff round, not a second down transition. Stop abandons it
// with the worker down.
func (s *Supervisor) restart(id int, st *workerState, restarts int, cause error) {
	defer s.wg.Done()
	s.cfg.OnStateChange(id, false, restarts, cause)
	for {
		s.cfg.Sleep(s.backoff(st))
		select {
		case <-s.stop:
			return
		default:
		}
		err := runRestore(st.restore)
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		if err != nil {
			st.consecutive++
			st.lastErr = fmt.Sprintf("daemon: worker restore failed: %v", err)
			s.mu.Unlock()
			continue
		}
		st.up, st.upSince = true, time.Now()
		st.restarts++
		restarts = int(st.restarts)
		s.mu.Unlock()
		s.cfg.OnStateChange(id, true, restarts, nil)
		st.resume()
		return
	}
}

// backoff computes the exponential-with-jitter delay for the worker's
// current run of consecutive failures.
func (s *Supervisor) backoff(st *workerState) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.cfg.BackoffBase
	for i := 1; i < st.consecutive && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	return d + time.Duration(backoffJitter*s.rng.Float64()*float64(d))
}

// runRestore invokes the restore hook, if any, with panic recovery.
func runRestore(restore RestoreFunc) (err error) {
	if restore == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: restore panic: %v", r)
		}
	}()
	return restore()
}

// Stop cancels pending backoffs and waits for restarts in flight to end.
// A worker whose restart it cut short stays down. Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Snapshot reports every worker's supervision state, ordered by id.
func (s *Supervisor) Snapshot() []WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, 0, len(s.workers))
	for id, st := range s.workers {
		out = append(out, WorkerStatus{
			ID: id, Name: st.name, Up: st.up,
			Restarts: st.restarts, LastErr: st.lastErr,
		})
	}
	slices.SortFunc(out, func(a, b WorkerStatus) int { return a.ID - b.ID })
	return out
}

// Down counts workers currently not up (failed or being restored) — the
// degraded-shard signal the ladder floor hangs off.
func (s *Supervisor) Down() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.workers {
		if !st.up {
			n++
		}
	}
	return n
}
