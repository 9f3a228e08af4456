package cachedirector

import (
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/chash"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/stats"
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

func newDirector(t *testing.T, m *cpusim.Machine) *Director {
	t.Helper()
	d, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	m := newMachine(t)
	if _, err := New(m, Config{MaxHeadroom: 100}); err == nil {
		t.Error("unaligned max headroom accepted")
	}
	if _, err := New(m, Config{MaxHeadroom: 1024}); err == nil {
		t.Error("headroom beyond 4-bit encoding accepted")
	}
	if _, err := New(m, Config{TargetOffset: 32}); err == nil {
		t.Error("unaligned target offset accepted")
	}
	if _, err := New(m, Config{TargetOffset: -64}); err == nil {
		t.Error("negative target offset accepted")
	}
	d, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Default targets: primary slice per core; for the Haswell ring that
	// is the co-located slice.
	for c := 0; c < m.Cores(); c++ {
		if d.coreSlice[c] != c {
			t.Errorf("core %d target slice = %d, want %d", c, d.coreSlice[c], c)
		}
	}
}

func TestInitPoolPlacesHeaderLines(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "p", Mbufs: 256, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	inited, misses := d.Stats()
	if inited != 256 {
		t.Errorf("inited = %d", inited)
	}
	// With the Haswell XOR hash, 13 lines of budget virtually always
	// reach all 8 slices.
	if misses > 0 {
		t.Errorf("misses = %d; expected full coverage on Haswell", misses)
	}
	// Verify the pre-computed headroom actually homes the first data line
	// to each core's slice.
	checked := 0
	pool.ForEach(func(mb *dpdk.Mbuf) {
		for core := 0; core < m.Cores(); core++ {
			h := d.HeadroomFor(mb, core)
			pa := pool.Mapping().Phys(mb.DataBaseVA() + uint64(h))
			if got := m.LLC.Hash().Slice(pa); got != d.coreSlice[core] {
				t.Fatalf("mbuf %#x core %d: headroom %d lands on slice %d, want %d",
					mb.BaseVA(), core, h, got, d.coreSlice[core])
			}
			checked++
		}
	})
	if checked != 256*8 {
		t.Errorf("checked %d placements", checked)
	}
}

func TestInitPoolRejectsSmallHeadroom(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{Name: "small", Mbufs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err == nil {
		t.Error("pool with 128 B headroom capacity accepted for 832 B budget")
	}
	if err := d.InitPool(nil); err == nil {
		t.Error("nil pool accepted")
	}
}

func TestPrepareSetsHeadroomAndChargesCore(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "p", Mbufs: 8, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	mb := pool.Get()
	before := m.Core(3).Cycles()
	d.Prepare(mb, 3)
	if got := m.Core(3).Cycles() - before; got != PrepareCycles {
		t.Errorf("prepare charged %d cycles, want %d", got, PrepareCycles)
	}
	pa := pool.Mapping().Phys(mb.DataVA())
	if got := m.LLC.Hash().Slice(pa); got != d.coreSlice[3] {
		t.Errorf("prepared data line on slice %d, want %d", got, d.coreSlice[3])
	}
}

func TestAttachEndToEnd(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	port, err := dpdk.NewPort(m, dpdk.PortConfig{
		Queues: 8, RingSize: 64, PoolMbufs: 64,
		HeadroomCap: dpdk.CacheDirectorHeadroom, Steering: dpdk.FlowDirector,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(port); err != nil {
		t.Fatal(err)
	}
	// Deliver packets to every queue; each received packet's header line
	// must be in the consuming core's primary slice.
	for i := 0; i < 64; i++ {
		port.Deliver(trace.Packet{Size: 64, FlowID: uint64(i)})
	}
	for q := 0; q < 8; q++ {
		for _, mb := range port.RxBurstInto(q, 64, nil) {
			pa := mb.DataPhys()
			if got := m.LLC.SliceOf(pa); got != d.coreSlice[q] {
				t.Errorf("queue %d: header line on slice %d, want %d", q, got, d.coreSlice[q])
			}
			if !m.LLC.Contains(pa) {
				t.Error("header line not resident after DDIO")
			}
		}
	}
}

// §4.2's headroom distribution: median ≈256 B, 95 % within 512 B, max 832.
func TestHeadroomDistributionShape(t *testing.T) {
	m := newMachine(t)
	d := newDirector(t, m)
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "p", Mbufs: 2048, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	var hs []float64
	for core := 0; core < m.Cores(); core++ {
		for _, h := range d.CollectHeadrooms(pool, core) {
			hs = append(hs, float64(h))
		}
	}
	sum := stats.Summarize(hs)
	if sum.Max > dpdk.CacheDirectorHeadroom {
		t.Errorf("max headroom %v exceeds budget", sum.Max)
	}
	if sum.P50 > 448 {
		t.Errorf("median headroom %v implausibly high", sum.P50)
	}
	if sum.P95 > 832 {
		t.Errorf("95th percentile %v beyond budget", sum.P95)
	}
}

func TestTargetOffsetPlacesDeeperLine(t *testing.T) {
	m := newMachine(t)
	d, err := New(m, Config{TargetOffset: 128}) // e.g. inner header after a VXLAN shim
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "p", Mbufs: 64, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	mb := pool.Get()
	d.Prepare(mb, 2)
	pa := pool.Mapping().Phys(mb.DataVA() + 128)
	if got := m.LLC.Hash().Slice(pa); got != d.coreSlice[2] {
		t.Errorf("offset-128 line on slice %d, want %d", got, d.coreSlice[2])
	}
}

// A hash whose slice only changes every 8 KB makes some slices
// unreachable within the 832 B headroom budget: the director must count
// misses and fall back to zero headroom instead of failing.
func TestHeadroomMissFallback(t *testing.T) {
	coarse, err := chash.NewXORHash([]uint64{1 << 17, 1 << 18, 1 << 19})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cpusim.NewMachineWithHash(arch.HaswellE52667v3(), coarse)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "coarse", Mbufs: 64, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	_, misses := d.Stats()
	if misses == 0 {
		t.Fatal("expected placement misses under a coarse hash")
	}
	// Prepare must still work (fallback headroom 0) for every core.
	mb := pool.Get()
	for core := 0; core < m.Cores(); core++ {
		d.Prepare(mb, core)
		if h := mb.Headroom(); h%64 != 0 || h > dpdk.CacheDirectorHeadroom {
			t.Fatalf("core %d: fallback headroom %d invalid", core, h)
		}
	}
}

func TestSpreadTierUsesSecondaries(t *testing.T) {
	m := newMachine(t)
	d, err := New(m, Config{SpreadTier: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "tier", Mbufs: 128, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	// Across the pool, core 0's placements must cover more than one slice
	// (primary S0 plus its secondary tier S2/S6 on the ring).
	seen := map[int]bool{}
	pool.ForEach(func(mb *dpdk.Mbuf) {
		h := d.HeadroomFor(mb, 0)
		pa := pool.Mapping().Phys(mb.DataBaseVA() + uint64(h))
		seen[m.LLC.Hash().Slice(pa)] = true
	})
	if len(seen) < 2 {
		t.Errorf("spread tier used only %d slice(s)", len(seen))
	}
	for s := range seen {
		if s != 0 && s != 2 && s != 6 {
			t.Errorf("placement outside core 0's tier: slice %d", s)
		}
	}
}

func TestAppSortedSkipsPrepareCost(t *testing.T) {
	m := newMachine(t)
	d, err := New(m, Config{AppSorted: true})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dpdk.NewMempool(m.Space, dpdk.MempoolConfig{
		Name: "sorted", Mbufs: 8, HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitPool(pool); err != nil {
		t.Fatal(err)
	}
	mb := pool.Get()
	before := m.Core(2).Cycles()
	d.Prepare(mb, 2)
	if got := m.Core(2).Cycles() - before; got != 0 {
		t.Errorf("app-sorted prepare charged %d cycles, want 0", got)
	}
	// Placement must still be correct.
	pa := pool.Mapping().Phys(mb.DataVA())
	if got := m.LLC.Hash().Slice(pa); got != d.coreSlice[2] {
		t.Errorf("app-sorted placement on slice %d, want %d", got, d.coreSlice[2])
	}
}

func TestTooManyCores(t *testing.T) {
	p := arch.HaswellE52667v3()
	p.Cores = 17
	p.Slices = 17
	p.PowerOfTwoSlices = false
	m, err := cpusim.NewMachine(p)
	if err != nil {
		t.Skipf("17-core machine unavailable: %v", err)
	}
	if _, err := New(m, Config{}); err == nil {
		t.Error("17 cores accepted despite 4-bit packing limit")
	}
}
