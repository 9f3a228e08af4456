package dpdk

import (
	"errors"
	"testing"

	"sliceaware/internal/overload"
	"sliceaware/internal/trace"
)

// recordingAQM drops every packet after the first and records what the
// port fed it, so tests can check the admission call site.
type recordingAQM struct {
	calls    int
	lastNow  float64
	lastLen  int
	lastCap  int
	lastSoj  float64
	resets   int
	dropFrom int // drop calls with index ≥ dropFrom
}

func (a *recordingAQM) Admit(nowNs float64, qlen, qcap int, sojournNs float64) error {
	a.lastNow, a.lastLen, a.lastCap, a.lastSoj = nowNs, qlen, qcap, sojournNs
	a.calls++
	if a.calls > a.dropFrom {
		return overload.ErrAQM
	}
	return nil
}
func (a *recordingAQM) Reset()       { a.resets++ }
func (a *recordingAQM) Name() string { return "recording" }

func TestResetStatsClearsLastDrop(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 1, PoolMbufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	port.Deliver(trace.Packet{Size: 64})
	port.Deliver(trace.Packet{Size: 64}) // ring full → drop
	if !errors.Is(port.LastDropCause(), ErrRingFull) {
		t.Fatalf("setup: expected a ring-full drop, got %v", port.LastDropCause())
	}
	port.ResetStats()
	if port.LastDropCause() != nil {
		t.Errorf("LastDropCause after ResetStats = %v, want nil", port.LastDropCause())
	}
	if port.Stats() != (PortStats{}) {
		t.Errorf("stats after reset = %+v", port.Stats())
	}
}

func TestPortAQMDropsBeforeAllocation(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 64, PoolMbufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := &recordingAQM{dropFrom: 1} // admit the first packet, drop the rest
	port.SetAQM(func(int) overload.AQM { return a })

	q, ok := port.Deliver(trace.Packet{Size: 64, Timestamp: 100})
	if !ok {
		t.Fatal("first packet should be admitted")
	}
	avail := port.Pool(q).Available()

	if _, ok := port.Deliver(trace.Packet{Size: 64, Timestamp: 900}); ok {
		t.Fatal("AQM drop did not refuse the packet")
	}
	// The early drop must cost no mempool slot.
	if port.Pool(q).Available() != avail {
		t.Error("AQM drop consumed an mbuf")
	}
	st := port.Stats()
	if st.RxDropAQM != 1 || st.RxDropped != 1 {
		t.Errorf("drop accounting = %+v, want 1 AQM drop", st)
	}
	if !errors.Is(port.LastDropCause(), overload.ErrAQM) ||
		!errors.Is(port.LastDropCause(), overload.ErrOverload) {
		t.Errorf("LastDropCause = %v, want ErrAQM family", port.LastDropCause())
	}
	// Sojourn estimate: head packet arrived at t=100, this one at t=900.
	if a.lastSoj != 800 {
		t.Errorf("sojourn estimate = %v, want 800", a.lastSoj)
	}
	if a.lastNow != 900 || a.lastLen != 1 || a.lastCap != 64 {
		t.Errorf("admission saw now=%v len=%d cap=%d", a.lastNow, a.lastLen, a.lastCap)
	}
}

func TestPortAQMEmptyRingZeroSojourn(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 16, PoolMbufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := &recordingAQM{dropFrom: 1 << 30}
	port.SetAQM(func(int) overload.AQM { return a })
	port.Deliver(trace.Packet{Size: 64, Timestamp: 500})
	if a.lastSoj != 0 {
		t.Errorf("empty-ring sojourn = %v, want 0", a.lastSoj)
	}
}

func TestPortAQMDisarmAndReset(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 2, RingSize: 16, PoolMbufs: 8})
	if err != nil {
		t.Fatal(err)
	}
	built := 0
	var as []*recordingAQM
	port.SetAQM(func(q int) overload.AQM {
		built++
		a := &recordingAQM{} // drops everything
		as = append(as, a)
		return a
	})
	if built != 2 {
		t.Fatalf("factory called %d times for 2 queues", built)
	}
	if port.aqm[0] != as[0] || port.aqm[1] != as[1] {
		t.Error("QueueAQM does not report the installed disciplines")
	}
	port.ResetAQM()
	if as[0].resets != 1 || as[1].resets != 1 {
		t.Error("ResetAQM did not reach every queue's discipline")
	}
	if _, ok := port.Deliver(trace.Packet{Size: 64}); ok {
		t.Fatal("armed AQM should have dropped")
	}
	port.SetAQM(nil)
	if port.aqm != nil {
		t.Error("SetAQM(nil) did not disarm")
	}
	if _, ok := port.Deliver(trace.Packet{Size: 64}); !ok {
		t.Fatal("disarmed port refused a deliverable packet")
	}
}

func TestPortCoDelBoundsStandingQueue(t *testing.T) {
	// End-to-end through the port: packets arrive faster than they are
	// drained; with CoDel armed the standing queue's head sojourn stays
	// bounded, with tail-drop it grows to the ring capacity.
	run := func(arm bool) (maxSojourn float64, drops uint64) {
		m := newMachine(t)
		port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 256, PoolMbufs: 512})
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			port.SetAQM(func(int) overload.AQM {
				c, err := overload.NewCoDel(overload.CoDelConfig{TargetNs: 5_000, IntervalNs: 50_000})
				if err != nil {
					t.Fatal(err)
				}
				return c
			})
		}
		now := 0.0
		const total = 20_000
		for i := 0; i < total; i++ {
			// Offered 1 pkt/µs, drained 1 pkt/2µs: 2× overload.
			port.Deliver(trace.Packet{Size: 64, FlowID: uint64(i), Timestamp: now})
			if i%2 == 0 {
				if ms := port.RxBurstInto(0, 1, nil); len(ms) > 0 {
					// Measure steady state, past CoDel's control-law ramp.
					if s := now - ms[0].Pkt.Timestamp; i >= total*3/4 && s > maxSojourn {
						maxSojourn = s
					}
					port.TxBurst(0, ms)
				}
			}
			now += 1_000
		}
		return maxSojourn, port.Stats().RxDropAQM
	}
	codelSoj, codelDrops := run(true)
	tailSoj, tailDrops := run(false)
	if codelDrops == 0 {
		t.Fatal("CoDel never dropped under 2× overload")
	}
	if tailDrops != 0 {
		t.Fatal("tail-drop run booked AQM drops")
	}
	if codelSoj >= tailSoj {
		t.Errorf("CoDel head sojourn %v not below tail-drop %v", codelSoj, tailSoj)
	}
}
