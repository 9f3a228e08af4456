// Package dpdk reimplements the slice of DPDK that CacheDirector touches:
// hugepage-backed mempools of fixed mbufs (two cache lines of metadata, a
// headroom area, and a data room — Fig 9), RX/TX rings, and a poll-mode
// NIC port whose receive path DMAs packet bytes into the simulated LLC via
// DDIO. Steering between queues supports both RSS and FlowDirector (§5).
package dpdk

import (
	"fmt"

	"sliceaware/internal/faults"
	"sliceaware/internal/phys"
	"sliceaware/internal/trace"
)

// Layout constants mirroring DPDK's defaults and the paper's Fig 9/10.
const (
	// MetadataSize is sizeof(struct rte_mbuf): exactly two cache lines.
	MetadataSize = 128
	// DefaultHeadroom is RTE_PKTMBUF_HEADROOM.
	DefaultHeadroom = 128
	// CacheDirectorHeadroom is the enlarged headroom capacity CacheDirector
	// provisions so dynamic adjustment never shrinks the data area (§4.2:
	// the campus-trace maximum was 832 B = 13 cache lines).
	CacheDirectorHeadroom = 832
	// DefaultDataRoom is the default mbuf data area.
	DefaultDataRoom = 2048
)

// Mbuf is one packet buffer. The simulated layout in the backing hugepage
// is [metadata 128 B][headroom capacity][data room]; DataVA moves with the
// current headroom, exactly like rte_pktmbuf's data_off.
type Mbuf struct {
	base        uint64 // VA of the metadata (object start)
	headroomCap int    // provisioned headroom bytes
	dataRoom    int    // data area bytes

	headroom int // current data_off relative to the data area base
	dataLen  int // bytes of packet data in this segment

	// Udata64 is the userdata field CacheDirector repurposes to carry
	// pre-computed per-core headroom line counts (4 bits per core, §4.2).
	Udata64 uint64

	// Pkt carries the workload identity of the packet occupying the mbuf.
	Pkt trace.Packet

	// Next chains additional segments when a packet exceeds the data room.
	Next *Mbuf

	pool *Mempool
}

// BaseVA returns the virtual address of the mbuf metadata.
func (m *Mbuf) BaseVA() uint64 { return m.base }

// DataBaseVA returns the address where headroom begins (data_off = 0).
func (m *Mbuf) DataBaseVA() uint64 { return m.base + MetadataSize }

// DataVA returns the current start of packet data.
func (m *Mbuf) DataVA() uint64 { return m.DataBaseVA() + uint64(m.headroom) }

// Headroom returns the current headroom in bytes.
func (m *Mbuf) Headroom() int { return m.headroom }

// SetHeadroom adjusts the headroom; it fails rather than silently shrink
// the data area below zero or exceed the provisioned capacity.
func (m *Mbuf) SetHeadroom(h int) error {
	if h < 0 || h > m.headroomCap {
		return fmt.Errorf("dpdk: headroom %d outside 0..%d", h, m.headroomCap)
	}
	if h%64 != 0 {
		return fmt.Errorf("dpdk: headroom %d not line-aligned", h)
	}
	m.headroom = h
	return nil
}

// HeadroomCapacity returns the provisioned headroom bytes.
func (m *Mbuf) HeadroomCapacity() int { return m.headroomCap }

// PktLen returns the total packet bytes across the segment chain.
func (m *Mbuf) PktLen() int {
	n := 0
	for s := m; s != nil; s = s.Next {
		n += s.dataLen
	}
	return n
}

// DataPhys translates the current data pointer to its physical address —
// what the driver programs into the NIC's RX descriptor.
func (m *Mbuf) DataPhys() uint64 {
	return m.pool.mapping.Phys(m.DataVA())
}

// Pool returns the owning mempool.
func (m *Mbuf) Pool() *Mempool { return m.pool }

// Mempool is a fixed population of mbufs carved from hugepage memory
// (librte_mempool + librte_mbuf).
type Mempool struct {
	name    string
	mapping *phys.Mapping

	all  []*Mbuf // every mbuf, in element-array order
	free []*Mbuf // LIFO free list, like DPDK's per-lcore cache

	faults *faults.Injector
}

// SetFaultInjector arms the pool's allocation path: while a
// MempoolExhausted event is active, Get fails as if another consumer held
// the pool's headroom. A nil injector disarms it.
func (p *Mempool) SetFaultInjector(fi *faults.Injector) { p.faults = fi }

// MempoolConfig sizes a pool.
type MempoolConfig struct {
	Name        string
	Mbufs       int // population
	HeadroomCap int // provisioned headroom bytes (DefaultHeadroom or CacheDirectorHeadroom)
	DataRoom    int // data area bytes
}

// NewMempool allocates the pool's backing memory from the space and builds
// the mbuf population.
func NewMempool(space *phys.Space, cfg MempoolConfig) (*Mempool, error) {
	if cfg.Mbufs <= 0 {
		return nil, fmt.Errorf("dpdk: mempool %q: need a positive mbuf count", cfg.Name)
	}
	if cfg.DataRoom <= 0 {
		cfg.DataRoom = DefaultDataRoom
	}
	if cfg.HeadroomCap < 0 {
		return nil, fmt.Errorf("dpdk: mempool %q: negative headroom capacity", cfg.Name)
	}
	if cfg.HeadroomCap == 0 {
		cfg.HeadroomCap = DefaultHeadroom
	}
	if cfg.HeadroomCap%64 != 0 || cfg.DataRoom%64 != 0 {
		return nil, fmt.Errorf("dpdk: mempool %q: headroom/data room must be line multiples", cfg.Name)
	}

	elem := uint64(MetadataSize + cfg.HeadroomCap + cfg.DataRoom)
	total := elem * uint64(cfg.Mbufs)
	pageSize := uint64(phys.PageSize2M)
	if total > phys.PageSize2M {
		pageSize = phys.PageSize1G
	}
	mapping, err := space.Map(total, pageSize)
	if err != nil {
		return nil, fmt.Errorf("dpdk: mempool %q: %w", cfg.Name, err)
	}

	p := &Mempool{
		name:    cfg.Name,
		mapping: mapping,
	}
	p.all = make([]*Mbuf, cfg.Mbufs)
	p.free = make([]*Mbuf, 0, cfg.Mbufs)
	for i := range p.all {
		p.all[i] = &Mbuf{
			base:        mapping.VirtBase + uint64(i)*elem,
			headroomCap: cfg.HeadroomCap,
			dataRoom:    cfg.DataRoom,
			headroom:    min(DefaultHeadroom, cfg.HeadroomCap),
			pool:        p,
		}
	}
	for i := cfg.Mbufs - 1; i >= 0; i-- {
		p.free = append(p.free, p.all[i])
	}
	return p, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Name returns the pool name.
func (p *Mempool) Name() string { return p.name }

// Available returns the number of free mbufs.
func (p *Mempool) Available() int { return len(p.free) }

// Mapping exposes the pool's backing hugepage mapping.
func (p *Mempool) Mapping() *phys.Mapping { return p.mapping }

// Get allocates one mbuf; nil when the pool is exhausted (rte_pktmbuf_alloc
// semantics).
func (p *Mempool) Get() *Mbuf {
	n := len(p.free)
	if n == 0 || p.faults.Fire(faults.MempoolExhausted) {
		return nil
	}
	m := p.free[n-1]
	p.free = p.free[:n-1]
	m.dataLen = 0
	m.Next = nil
	m.Pkt = trace.Packet{}
	return m
}

// Put frees an mbuf chain back to its pool(s).
func (p *Mempool) Put(m *Mbuf) {
	for m != nil {
		next := m.Next
		m.Next = nil
		m.pool.free = append(m.pool.free, m)
		m = next
	}
}

// ForEach visits every mbuf in the pool (free or in flight) in element
// order — CacheDirector's initialization pass uses this to pre-compute
// headroom tables.
func (p *Mempool) ForEach(fn func(*Mbuf)) {
	for _, m := range p.all {
		fn(m)
	}
}
