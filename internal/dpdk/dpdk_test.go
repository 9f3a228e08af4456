package dpdk

import (
	"math/rand"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/phys"
	"sliceaware/internal/trace"
)

func newMachine(t *testing.T) *cpusim.Machine {
	t.Helper()
	m, err := cpusim.NewMachine(arch.HaswellE52667v3())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newPool(t *testing.T, space *phys.Space, n int) *Mempool {
	t.Helper()
	p, err := NewMempool(space, MempoolConfig{Name: "test", Mbufs: n, HeadroomCap: CacheDirectorHeadroom})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMempoolLayout(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 16)
	if len(p.all) != 16 || p.Available() != 16 {
		t.Fatalf("capacity/available = %d/%d", len(p.all), p.Available())
	}
	m := p.Get()
	if m == nil {
		t.Fatal("Get returned nil")
	}
	if m.DataBaseVA() != m.BaseVA()+MetadataSize {
		t.Error("data base must follow 2-line metadata")
	}
	if m.Headroom() != DefaultHeadroom {
		t.Errorf("fresh headroom = %d, want %d", m.Headroom(), DefaultHeadroom)
	}
	if m.DataVA() != m.DataBaseVA()+DefaultHeadroom {
		t.Error("DataVA inconsistent with headroom")
	}
	if m.dataRoom != DefaultDataRoom || m.HeadroomCapacity() != CacheDirectorHeadroom {
		t.Errorf("rooms = %d/%d", m.dataRoom, m.HeadroomCapacity())
	}
	if m.BaseVA()%64 != 0 {
		t.Error("mbuf not line-aligned")
	}
	// Element addresses must not overlap.
	m2 := p.Get()
	delta := m2.BaseVA() - m.BaseVA()
	if delta != 0 && delta < uint64(MetadataSize+CacheDirectorHeadroom+DefaultDataRoom) {
		if m.BaseVA() > m2.BaseVA() {
			delta = m.BaseVA() - m2.BaseVA()
		}
		if delta < uint64(MetadataSize+CacheDirectorHeadroom+DefaultDataRoom) {
			t.Errorf("elements overlap: delta %d", delta)
		}
	}
}

func TestMempoolExhaustionAndPut(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 2)
	a, b := p.Get(), p.Get()
	if a == nil || b == nil {
		t.Fatal("pool underdelivered")
	}
	if p.Get() != nil {
		t.Error("exhausted pool returned an mbuf")
	}
	a.Next = b // chained free
	p.Put(a)
	if p.Available() != 2 {
		t.Errorf("available after chained Put = %d", p.Available())
	}
	if a.Next != nil {
		t.Error("Put left chain intact")
	}
}

func TestMempoolGetResetsState(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 1)
	m := p.Get()
	m.dataLen = 99
	m.Pkt = trace.Packet{Size: 1500}
	p.Put(m)
	m = p.Get()
	if m.dataLen != 0 || m.Pkt.Size != 0 || m.Next != nil {
		t.Error("Get returned stale mbuf state")
	}
}

func TestSetHeadroom(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 1)
	m := p.Get()
	if err := m.SetHeadroom(832); err != nil {
		t.Errorf("max headroom rejected: %v", err)
	}
	if m.DataVA() != m.DataBaseVA()+832 {
		t.Error("DataVA did not move")
	}
	if err := m.SetHeadroom(896); err == nil {
		t.Error("over-capacity headroom accepted")
	}
	if err := m.SetHeadroom(-64); err == nil {
		t.Error("negative headroom accepted")
	}
	if err := m.SetHeadroom(100); err == nil {
		t.Error("unaligned headroom accepted")
	}
}

func TestMempoolForEachVisitsInFlight(t *testing.T) {
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 4)
	taken := p.Get()
	_ = taken
	n := 0
	p.ForEach(func(*Mbuf) { n++ })
	if n != 4 {
		t.Errorf("ForEach visited %d of 4", n)
	}
}

func TestMempoolValidation(t *testing.T) {
	space := phys.NewSpace(1 << 30)
	if _, err := NewMempool(space, MempoolConfig{Mbufs: 0}); err == nil {
		t.Error("zero mbufs accepted")
	}
	if _, err := NewMempool(space, MempoolConfig{Mbufs: 1, HeadroomCap: -64}); err == nil {
		t.Error("negative headroom accepted")
	}
	if _, err := NewMempool(space, MempoolConfig{Mbufs: 1, HeadroomCap: 100}); err == nil {
		t.Error("unaligned headroom accepted")
	}
	if _, err := NewMempool(space, MempoolConfig{Mbufs: 1, DataRoom: 100}); err == nil {
		t.Error("unaligned data room accepted")
	}
}

func TestRingFIFO(t *testing.T) {
	r, err := NewRing("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 8)
	var ms []*Mbuf
	for i := 0; i < 4; i++ {
		ms = append(ms, p.Get())
	}
	for _, m := range ms {
		if !r.Enqueue(m) {
			t.Fatal("enqueue into a ring with room failed")
		}
	}
	if r.Enqueue(p.Get()) {
		t.Error("enqueue into full ring succeeded")
	}
	if r.Len() != 4 {
		t.Errorf("len = %d", r.Len())
	}
	out := r.DequeueBurstAppend(nil, 10)
	if len(out) != 4 {
		t.Fatalf("dequeued %d", len(out))
	}
	for i := range out {
		if out[i] != ms[i] {
			t.Fatal("FIFO order violated")
		}
	}
	if r.Dequeue() != nil {
		t.Error("dequeue from empty ring returned an mbuf")
	}
	if _, err := NewRing("t", 0); err == nil {
		t.Error("zero-capacity ring accepted")
	}
	if r.Capacity() != 4 {
		t.Error("accessors broken")
	}
}

func TestRingWraparound(t *testing.T) {
	r, _ := NewRing("t", 3)
	space := phys.NewSpace(8 << 30)
	p := newPool(t, space, 3)
	a, b, c := p.Get(), p.Get(), p.Get()
	for round := 0; round < 10; round++ {
		r.Enqueue(a)
		r.Enqueue(b)
		r.Enqueue(c)
		if r.Dequeue() != a || r.Dequeue() != b || r.Dequeue() != c {
			t.Fatalf("round %d: order broken", round)
		}
	}
}

func newPort(t *testing.T, m *cpusim.Machine, steering Steering) *Port {
	t.Helper()
	port, err := NewPort(m, PortConfig{
		Queues:      4,
		RingSize:    64,
		PoolMbufs:   128,
		HeadroomCap: CacheDirectorHeadroom,
		Steering:    steering,
	})
	if err != nil {
		t.Fatal(err)
	}
	return port
}

func TestPortDeliverAndRx(t *testing.T) {
	m := newMachine(t)
	port := newPort(t, m, RSS)
	pkt := trace.Packet{Size: 128, FlowID: 7, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	q, ok := port.Deliver(pkt)
	if !ok {
		t.Fatal("delivery failed")
	}
	if got := port.RxQueueLen(q); got != 1 {
		t.Fatalf("rx queue len = %d", got)
	}
	ms := port.RxBurstInto(q, 32, nil)
	if len(ms) != 1 || ms[0].Pkt.FlowID != 7 || ms[0].PktLen() != 128 {
		t.Fatalf("rx burst wrong: %+v", ms)
	}
	// The packet's data lines must be in the LLC (DDIO), confined to the
	// DDIO ways — and readable at LLC-hit cost.
	pa := ms[0].DataPhys()
	if !m.LLC.Contains(pa) {
		t.Error("packet line not in LLC after DMA")
	}
	st := port.Stats()
	if st.RxPackets != 1 {
		t.Errorf("stats = %+v", st)
	}
	port.TxBurst(q, ms)
	st = port.Stats()
	if st.TxBytes != 128 {
		t.Errorf("tx stats = %+v", st)
	}
	if port.Pool(q).Available() != len(port.Pool(q).all) {
		t.Error("TxBurst did not free mbufs")
	}
}

func TestPortChainsOversizedPackets(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 16, PoolMbufs: 16, DataRoom: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, ok := port.Deliver(trace.Packet{Size: 1500, FlowID: 1})
	if !ok {
		t.Fatal("delivery failed")
	}
	ms := port.RxBurstInto(0, 1, nil)
	if len(ms) != 1 {
		t.Fatal("no packet")
	}
	segs := 0
	for s := ms[0]; s != nil; s = s.Next {
		segs++
	}
	if segs != 3 {
		t.Errorf("1500 B over 512 B rooms → %d segments, want 3", segs)
	}
	if ms[0].PktLen() != 1500 {
		t.Errorf("PktLen = %d", ms[0].PktLen())
	}
	port.TxBurst(0, ms)
	if port.Pool(0).Available() != 16 {
		t.Error("chained segments leaked")
	}
}

func TestPortDropsWhenPoolExhausted(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 64, PoolMbufs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		port.Deliver(trace.Packet{Size: 64, FlowID: uint64(i)})
	}
	st := port.Stats()
	if st.RxPackets != 4 || st.RxDropped != 6 {
		t.Errorf("rx/drop = %d/%d, want 4/6", st.RxPackets, st.RxDropped)
	}
}

func TestPortDropsWhenRingFull(t *testing.T) {
	m := newMachine(t)
	port, err := NewPort(m, PortConfig{Queues: 1, RingSize: 2, PoolMbufs: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		port.Deliver(trace.Packet{Size: 64})
	}
	st := port.Stats()
	if st.RxPackets != 2 || st.RxDropped != 3 {
		t.Errorf("rx/drop = %d/%d, want 2/3", st.RxPackets, st.RxDropped)
	}
	// Dropped deliveries must return their mbufs.
	if port.Pool(0).Available() != 64-2 {
		t.Errorf("available = %d, want 62", port.Pool(0).Available())
	}
}

func TestSteeringModes(t *testing.T) {
	m := newMachine(t)

	// RSS: same flow → same queue; different flows spread.
	rss := newPort(t, m, RSS)
	p1 := trace.Packet{FlowID: 1, SrcIP: 10, DstIP: 20, SrcPort: 30, DstPort: 40, Proto: 6}
	if rss.SteerQueue(p1) != rss.SteerQueue(p1) {
		t.Error("RSS not deterministic per flow")
	}
	seen := map[int]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := trace.Packet{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)), Proto: 6}
		seen[rss.SteerQueue(p)] = true
	}
	if len(seen) != 4 {
		t.Errorf("RSS used %d of 4 queues over 100 flows", len(seen))
	}

	// FlowDirector: first-seen flows round-robin — perfectly balanced.
	fd := newPort(t, m, FlowDirector)
	counts := make([]int, 4)
	for i := 0; i < 40; i++ {
		counts[fd.SteerQueue(trace.Packet{FlowID: uint64(i)})]++
	}
	for q, n := range counts {
		if n != 10 {
			t.Errorf("FlowDirector queue %d got %d flows, want 10", q, n)
		}
	}
	if fd.SteerQueue(trace.Packet{FlowID: 5}) != fd.SteerQueue(trace.Packet{FlowID: 5}) {
		t.Error("FlowDirector not sticky per flow")
	}
	if len(fd.fdirTable) != 40 {
		t.Errorf("FlowRules = %d", len(fd.fdirTable))
	}
	if RSS.String() == "" || FlowDirector.String() == "" || Steering(9).String() == "" {
		t.Error("steering strings broken")
	}
}

func TestRSSLessBalancedThanFlowDirector(t *testing.T) {
	// §5.2's observation: FlowDirector balances flows over queues better
	// than RSS for the campus trace.
	m := newMachine(t)
	rss := newPort(t, m, RSS)
	fd := newPort(t, m, FlowDirector)
	g, err := trace.NewCampusMix(rand.New(rand.NewSource(2)), 64)
	if err != nil {
		t.Fatal(err)
	}
	rssCount := make([]int, 4)
	fdCount := make([]int, 4)
	for i := 0; i < 20000; i++ {
		p := g.Next()
		rssCount[rss.SteerQueue(p)]++
		fdCount[fd.SteerQueue(p)]++
	}
	if spread(rssCount) < spread(fdCount) {
		t.Errorf("RSS spread %d < FlowDirector spread %d; expected RSS to be less balanced", spread(rssCount), spread(fdCount))
	}
}

func spread(counts []int) int {
	mn, mx := counts[0], counts[0]
	for _, c := range counts {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	return mx - mn
}

func TestPrepareHookRuns(t *testing.T) {
	m := newMachine(t)
	port := newPort(t, m, FlowDirector)
	var hookQueue = -1
	port.SetMbufPrepare(func(mb *Mbuf, q int) {
		hookQueue = q
		if err := mb.SetHeadroom(256); err != nil {
			t.Errorf("SetHeadroom in hook: %v", err)
		}
	})
	q, ok := port.Deliver(trace.Packet{Size: 64, FlowID: 1})
	if !ok {
		t.Fatal("delivery failed")
	}
	if hookQueue != q {
		t.Errorf("hook saw queue %d, delivery used %d", hookQueue, q)
	}
	ms := port.RxBurstInto(q, 1, nil)
	if ms[0].Headroom() != 256 {
		t.Errorf("headroom = %d, want hook's 256", ms[0].Headroom())
	}
}

func TestPortValidation(t *testing.T) {
	m := newMachine(t)
	if _, err := NewPort(m, PortConfig{Queues: 0}); err == nil {
		t.Error("zero queues accepted")
	}
	if _, err := NewPort(m, PortConfig{Queues: 9}); err == nil {
		t.Error("more queues than cores accepted")
	}
}
