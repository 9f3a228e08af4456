// Package lib plants dead code, each kind next to a look-alike that stays,
// for the reachability gate's self-test.
package lib

import "sync/atomic"

// Stats is encoded through Meter's tagged field, so Hits stays unread.
type Stats struct{ Hits int }

// Meter is live: the program builds one, adds to it and prints it.
type Meter struct {
	name   string
	n      int    // dead: only n++ touches it
	counts [4]int // dead: only counts[i]++ and the dead Len read it
	total  int64  // stays: read through &m.total
	peak   int    // written only, but allowlisted
	Stats  Stats  `json:"stats"`
}

func NewMeter(name string) *Meter {
	return &Meter{name: name}
}

// String is reached only through fmt.Stringer.
func (m *Meter) String() string { return "meter " + m.name }

// Len is dead: no program calls it, and the Len of sort.Interface does not
// keep it, because Meter has no Less or Swap.
func (m *Meter) Len() int { return len(m.counts) }

func (m *Meter) Add(v int) {
	m.n++
	m.counts[v%4]++
	atomic.AddInt64(&m.total, int64(v))
	m.peak = v
	m.Stats.Hits++
}

// Window is generic; its method reads its field through an instance.
type Window[T any] struct{ items []T }

func NewWindow[T any](items ...T) *Window[T] { return &Window[T]{items: items} }

func (w *Window[T]) Last() T { return w.items[len(w.items)-1] }

// WrapErr's Unwrap and Is are reached only through errors.Is, which
// dispatches through interfaces written inside its function body.
type WrapErr struct{ Err error }

func (e *WrapErr) Error() string { return "lib: " + e.Err.Error() }

func (e *WrapErr) Unwrap() error { return e.Err }

func (e *WrapErr) Is(target error) bool { return target == e }
