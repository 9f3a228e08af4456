package dpdk

import "fmt"

// Ring is a fixed-capacity FIFO of mbufs — librte_ring as used for RX/TX
// queues. The simulated machine is single-threaded, so no atomics are
// needed; semantics (bounded, drop-on-full burst enqueue) match DPDK.
type Ring struct {
	buf  []*Mbuf
	head int // dequeue position
	tail int // enqueue position
	n    int // occupancy
}

// NewRing builds a ring with the given capacity (must be positive).
func NewRing(name string, capacity int) (*Ring, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dpdk: ring %q: capacity must be positive, got %d", name, capacity)
	}
	return &Ring{buf: make([]*Mbuf, capacity)}, nil
}

// Capacity returns the maximum occupancy.
func (r *Ring) Capacity() int { return len(r.buf) }

// Len returns the current occupancy.
func (r *Ring) Len() int { return r.n }

// Enqueue adds one mbuf; false when full.
func (r *Ring) Enqueue(m *Mbuf) bool {
	if r.n == len(r.buf) {
		return false
	}
	r.buf[r.tail] = m
	r.tail = (r.tail + 1) % len(r.buf)
	r.n++
	return true
}

// Peek returns the head-of-line mbuf without removing it; nil when empty.
// The RX AQM uses it to estimate head sojourn time from the head packet's
// arrival timestamp.
func (r *Ring) Peek() *Mbuf {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// Dequeue removes one mbuf; nil when empty.
func (r *Ring) Dequeue() *Mbuf {
	if r.n == 0 {
		return nil
	}
	m := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return m
}

// DequeueBurstAppend removes up to max mbufs, appending them to dst so a
// PMD poll loop can reuse one scratch buffer across bursts.
func (r *Ring) DequeueBurstAppend(dst []*Mbuf, max int) []*Mbuf {
	if max > r.n {
		max = r.n
	}
	for i := 0; i < max; i++ {
		dst = append(dst, r.Dequeue())
	}
	return dst
}
