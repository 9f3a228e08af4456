package dpdk

import (
	"errors"
	"testing"

	"sliceaware/internal/faults"
	"sliceaware/internal/phys"
	"sliceaware/internal/trace"
)

// TestRingPartialFillKeepsFIFOAcrossWraparound enqueues mbufs one at a
// time, as the port RX path does, into a ring whose head sits mid-buffer:
// the ring takes only as many as it has room for and keeps FIFO order
// across the wrap boundary.
func TestRingPartialFillKeepsFIFOAcrossWraparound(t *testing.T) {
	r, err := NewRing("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 8)
	enqueueAll := func(ms []*Mbuf) int {
		for i, m := range ms {
			if !r.Enqueue(m) {
				return i
			}
		}
		return len(ms)
	}

	// Advance head past the middle so the next burst must wrap.
	first := []*Mbuf{p.Get(), p.Get(), p.Get()}
	if got := enqueueAll(first); got != 3 {
		t.Fatalf("warm-up enqueued %d", got)
	}
	r.Dequeue()
	r.Dequeue()

	// 3 slots free (1 occupied of 4): a 4-mbuf burst fills partially.
	burst := []*Mbuf{p.Get(), p.Get(), p.Get(), p.Get()}
	if got := enqueueAll(burst); got != 3 {
		t.Fatalf("burst on 3 free slots took %d, want 3", got)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d after partial fill", r.Len())
	}
	// FIFO across the wrap boundary: leftover of the first burst, then the
	// accepted prefix of the second.
	want := []*Mbuf{first[2], burst[0], burst[1], burst[2]}
	for i, w := range want {
		if got := r.Dequeue(); got != w {
			t.Fatalf("position %d out of order", i)
		}
	}
}

func TestMempoolRecoversAfterExhaustion(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 2)
	a, b := p.Get(), p.Get()
	if p.Get() != nil {
		t.Fatal("exhausted pool returned an mbuf")
	}
	p.Put(a)
	if c := p.Get(); c == nil {
		t.Fatal("pool did not recover after Put")
	}
	p.Put(b)
}

func TestInjectedMempoolExhaustion(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 8)
	fi := faults.MustNewInjector(faults.Plan{Seed: 1, Events: []faults.Event{
		{Kind: faults.MempoolExhausted, Probability: 1, From: 0, To: 2},
	}})
	p.SetFaultInjector(fi)
	// The pool has room, but the first two Gets fail as if a co-runner
	// held the buffers.
	if p.Get() != nil || p.Get() != nil {
		t.Fatal("injected exhaustion did not fail Get")
	}
	if p.Get() == nil {
		t.Fatal("Get still failing outside the fault window")
	}
	if c := fi.Counts(); c.MempoolFails != 2 {
		t.Errorf("injector counted %d mempool faults, want 2", c.MempoolFails)
	}
}

func TestPortInjectedDropBreakdown(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 64, PoolMbufs: 64})
	if err != nil {
		t.Fatal(err)
	}
	// One fault of each RX kind, each armed for its first opportunity only.
	port.SetFaultInjector(faults.MustNewInjector(faults.Plan{Seed: 1, Events: []faults.Event{
		{Kind: faults.NICDrop, Probability: 1, To: 1},
		{Kind: faults.NICCorrupt, Probability: 1, To: 1},
		{Kind: faults.RingOverflow, Probability: 1, To: 1},
	}}))

	// Packet 1 is lost on the wire — before steering, so no queue either.
	if q, ok := port.Deliver(trace.Packet{Size: 64, FlowID: 1}); ok || q != -1 {
		t.Fatalf("wire-dropped packet reported (%d,%v)", q, ok)
	}
	if cause := port.LastDropCause(); !errors.Is(cause, ErrFrameDropped) || !errors.Is(cause, faults.ErrInjected) {
		t.Errorf("wire drop cause %v", cause)
	}
	// Packet 2 fails its FCS check.
	if _, ok := port.Deliver(trace.Packet{Size: 64, FlowID: 2}); ok {
		t.Fatal("corrupt packet accepted")
	}
	if cause := port.LastDropCause(); !errors.Is(cause, ErrFrameDropped) || !errors.Is(cause, faults.ErrInjected) {
		t.Errorf("corrupt drop cause %v", cause)
	}
	// Packet 3 hits the injected ring overflow after buffering.
	if _, ok := port.Deliver(trace.Packet{Size: 64, FlowID: 3}); ok {
		t.Fatal("overflowed packet accepted")
	}
	if cause := port.LastDropCause(); !errors.Is(cause, ErrRingFull) || !errors.Is(cause, faults.ErrInjected) {
		t.Errorf("ring drop cause %v", cause)
	}
	// Packet 4 sails through.
	if _, ok := port.Deliver(trace.Packet{Size: 64, FlowID: 4}); !ok {
		t.Fatal("clean packet dropped")
	}

	st := port.Stats()
	if st.RxDropWire != 1 || st.RxDropCorrupt != 1 || st.RxDropRing != 1 || st.RxDropPool != 0 {
		t.Errorf("breakdown = %+v", st)
	}
	if st.RxDropped != 3 || st.RxPackets != 1 {
		t.Errorf("totals = %+v", st)
	}
	// The overflowed mbuf must have returned to its pool.
	if got := port.Pool(0).Available(); got != 64-1 {
		t.Errorf("available = %d, want 63", got)
	}
}

func TestPortRealExhaustionCauses(t *testing.T) {
	m := newMachine(t)
	// Pool of 2, ring of 1: first packet fills the ring, second exhausts
	// neither but overflows the ring, and with the ring still full the
	// pool drains next.
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 1, PoolMbufs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := port.Deliver(trace.Packet{Size: 64}); !ok {
		t.Fatal("first packet dropped")
	}
	if _, ok := port.Deliver(trace.Packet{Size: 64}); ok {
		t.Fatal("second packet accepted with a full ring")
	}
	cause := port.LastDropCause()
	if !errors.Is(cause, ErrRingFull) {
		t.Errorf("cause %v, want ring full", cause)
	}
	if errors.Is(cause, faults.ErrInjected) {
		t.Error("congestive drop blamed on the injector")
	}
	st := port.Stats()
	if st.RxDropRing != 1 || st.RxDropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSegmentChainPoolExhaustion(t *testing.T) {
	m := newMachine(t)
	// A 1500 B packet needs 3 segments of 512 B; the pool only has 2.
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 16, PoolMbufs: 2, DataRoom: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := port.Deliver(trace.Packet{Size: 1500}); ok {
		t.Fatal("oversized packet accepted without enough segments")
	}
	if cause := port.LastDropCause(); !errors.Is(cause, ErrPoolExhausted) {
		t.Errorf("cause %v, want pool exhausted", cause)
	}
	st := port.Stats()
	if st.RxDropPool != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The partially-built chain must be fully returned.
	if got := port.Pool(0).Available(); got != 2 {
		t.Errorf("available = %d, want 2", got)
	}
}

func TestInjectedBurstTruncation(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 64, PoolMbufs: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, ok := port.Deliver(trace.Packet{Size: 64, FlowID: uint64(i)}); !ok {
			t.Fatal("delivery failed")
		}
	}
	port.SetFaultInjector(faults.MustNewInjector(faults.Plan{Seed: 1, Events: []faults.Event{
		{Kind: faults.BurstTruncate, Probability: 1, Magnitude: 0.5},
	}}))
	if got := len(port.RxBurstInto(0, 8, nil)); got != 4 {
		t.Errorf("truncated burst returned %d, want 4", got)
	}
	port.SetFaultInjector(nil)
	if got := len(port.RxBurstInto(0, 8, nil)); got != 4 {
		t.Errorf("disarmed burst returned %d, want the 4 remaining", got)
	}
}
