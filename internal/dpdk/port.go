package dpdk

import (
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/faults"
	"sliceaware/internal/overload"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
)

// Steering selects how the NIC spreads incoming packets over RX queues.
type Steering int

const (
	// RSS hashes the 5-tuple (Toeplitz in hardware; a deterministic
	// mixer here) to pick a queue.
	RSS Steering = iota
	// FlowDirector uses exact-match flow rules; our model assigns flows
	// round-robin on first sight, which balances queues better than a
	// random hash — the effect observed in §5.2.
	FlowDirector
)

func (s Steering) String() string {
	switch s {
	case RSS:
		return "RSS"
	case FlowDirector:
		return "FlowDirector"
	default:
		return fmt.Sprintf("Steering(%d)", int(s))
	}
}

// MbufPrepareFunc is the driver hook CacheDirector installs: called just
// before the mbuf's data address is handed to the NIC for DMA, with the
// queue (== consuming core) that will fetch the packet (§4.2, "Ensuring
// the appropriate headroom size").
type MbufPrepareFunc func(m *Mbuf, queue int)

// PortStats aggregates a port's traffic counters.
type PortStats struct {
	RxPackets uint64
	RxDropped uint64 // every lost RX packet (sum of the breakdown below)
	TxBytes   uint64

	// Drop-cause breakdown of RxDropped, mirroring a real NIC's extended
	// statistics (rx_missed, rx_nombuf, rx_crc_errors...).
	RxDropRing    uint64 // RX ring had no free descriptor
	RxDropPool    uint64 // mempool could not supply an mbuf
	RxDropWire    uint64 // injected wire loss before the NIC
	RxDropCorrupt uint64 // FCS/CRC rejection at RX
	RxDropAQM     uint64 // active queue management early drop
}

// Port is one NIC port bound to the userspace driver: per-queue mempools
// and RX/TX rings plus the DMA path into the simulated LLC.
type Port struct {
	machine  *cpusim.Machine
	queues   int
	steering Steering

	pools []*Mempool
	rx    []*Ring
	tx    []*Ring

	prepare MbufPrepareFunc
	aqm     []overload.AQM // per-queue RX admission; nil slice = tail-drop only

	fdirTable map[uint64]int // FlowDirector: flowID → queue
	fdirNext  int

	faults   *faults.Injector
	lastDrop error

	stats PortStats
	tm    portMetrics
}

// portMetrics holds the port's registry handles. All fields are nil-safe:
// an un-instrumented port carries nil handles and every update is a
// predictable-branch no-op.
type portMetrics struct {
	rxPackets, rxBytes    *telemetry.Counter
	txPackets, txBytes    *telemetry.Counter
	segments              *telemetry.Counter
	dropRing, dropPool    *telemetry.Counter
	dropWire, dropCorrupt *telemetry.Counter
	dropAQM               *telemetry.Counter
}

// SetTelemetry instruments the port: hot-path traffic/drop counters
// (sharded by queue) plus export-time gauges for RX ring occupancy,
// mempool availability and installed FlowDirector rules.
func (p *Port) SetTelemetry(c *telemetry.Collector) {
	reg := c.Registry()
	p.tm = portMetrics{
		rxPackets:   reg.CounterL("dpdk_port_rx_packets_total", "Packets accepted on the RX path", ""),
		rxBytes:     reg.CounterL("dpdk_port_rx_bytes_total", "Bytes accepted on the RX path", ""),
		txPackets:   reg.CounterL("dpdk_port_tx_packets_total", "Packets transmitted", ""),
		txBytes:     reg.CounterL("dpdk_port_tx_bytes_total", "Bytes transmitted", ""),
		segments:    reg.CounterL("dpdk_port_segments_total", "Chained segments created for oversized frames", ""),
		dropRing:    reg.CounterL("dpdk_port_rx_dropped_total", "RX losses by cause", `cause="ring"`),
		dropPool:    reg.CounterL("dpdk_port_rx_dropped_total", "RX losses by cause", `cause="pool"`),
		dropWire:    reg.CounterL("dpdk_port_rx_dropped_total", "RX losses by cause", `cause="wire"`),
		dropCorrupt: reg.CounterL("dpdk_port_rx_dropped_total", "RX losses by cause", `cause="corrupt"`),
		dropAQM:     reg.CounterL("dpdk_port_rx_dropped_total", "RX losses by cause", `cause="aqm"`),
	}
	if reg == nil {
		return
	}
	for q := 0; q < p.queues; q++ {
		q := q
		reg.GaugeFunc("dpdk_rx_ring_occupancy", "RX descriptors waiting per queue",
			fmt.Sprintf(`queue="%d"`, q), func() float64 { return float64(p.rx[q].Len()) })
		reg.GaugeFunc("dpdk_mempool_available", "Free mbufs per queue mempool",
			fmt.Sprintf(`queue="%d"`, q), func() float64 { return float64(p.pools[q].Available()) })
	}
	reg.GaugeFunc("dpdk_fdir_rules", "Installed FlowDirector rules", "",
		func() float64 { return float64(len(p.fdirTable)) })
}

// PortConfig sizes a port.
type PortConfig struct {
	Queues      int
	RingSize    int // per-queue RX/TX descriptor count
	PoolMbufs   int // per-queue mempool population
	HeadroomCap int // mbuf headroom capacity
	DataRoom    int
	Steering    Steering
}

// NewPort allocates the port's queues and mempools from machine memory.
func NewPort(machine *cpusim.Machine, cfg PortConfig) (*Port, error) {
	if cfg.Queues <= 0 {
		return nil, fmt.Errorf("dpdk: port needs ≥1 queue, got %d", cfg.Queues)
	}
	if cfg.Queues > machine.Cores() {
		return nil, fmt.Errorf("dpdk: %d queues exceed %d cores (one queue per core)", cfg.Queues, machine.Cores())
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 512
	}
	if cfg.PoolMbufs <= 0 {
		cfg.PoolMbufs = 2 * cfg.RingSize
	}
	p := &Port{
		machine:   machine,
		queues:    cfg.Queues,
		steering:  cfg.Steering,
		fdirTable: make(map[uint64]int),
	}
	for q := 0; q < cfg.Queues; q++ {
		pool, err := NewMempool(machine.Space, MempoolConfig{
			Name:        fmt.Sprintf("port0-q%d", q),
			Mbufs:       cfg.PoolMbufs,
			HeadroomCap: cfg.HeadroomCap,
			DataRoom:    cfg.DataRoom,
		})
		if err != nil {
			return nil, err
		}
		rxr, err := NewRing(fmt.Sprintf("rx-q%d", q), cfg.RingSize)
		if err != nil {
			return nil, err
		}
		txr, err := NewRing(fmt.Sprintf("tx-q%d", q), cfg.RingSize)
		if err != nil {
			return nil, err
		}
		p.pools = append(p.pools, pool)
		p.rx = append(p.rx, rxr)
		p.tx = append(p.tx, txr)
	}
	return p, nil
}

// Queues returns the queue count.
func (p *Port) Queues() int { return p.queues }

// Pool returns queue q's mempool.
func (p *Port) Pool(q int) *Mempool { return p.pools[q] }

// SetMbufPrepare installs the driver hook (CacheDirector's entry point).
func (p *Port) SetMbufPrepare(f MbufPrepareFunc) { p.prepare = f }

// SetAQM installs an active-queue-management discipline per RX queue: f
// is called once for each queue and must return a fresh AQM instance (the
// disciplines hold per-queue state). A nil f disarms AQM and restores
// blind tail-drop. Deliver consults the discipline after steering and
// before buffer allocation, so an early drop spends no mempool slot and
// triggers no DDIO fill.
func (p *Port) SetAQM(f func(queue int) overload.AQM) {
	if f == nil {
		p.aqm = nil
		return
	}
	p.aqm = make([]overload.AQM, p.queues)
	for q := range p.aqm {
		p.aqm[q] = f(q)
	}
}

// ResetAQM clears every discipline's clock-anchored state, for runs that
// restart the simulated clock at zero (DuT.Reset calls this).
func (p *Port) ResetAQM() {
	for _, a := range p.aqm {
		a.Reset()
	}
}

// SetFaultInjector arms the port's RX path (wire drop, corruption, ring
// overflow, burst truncation) and every queue's mempool against the
// injector's plan. A nil injector disarms everything.
func (p *Port) SetFaultInjector(fi *faults.Injector) {
	p.faults = fi
	for _, pool := range p.pools {
		pool.SetFaultInjector(fi)
	}
}

// LastDropCause reports why the most recent RX drop happened, as a
// sentinel-wrapping error (ErrPoolExhausted, ErrRingFull, ErrFrameDropped;
// injected causes additionally match faults.ErrInjected). Nil when the
// port has never dropped.
func (p *Port) LastDropCause() error { return p.lastDrop }

// Stats returns a copy of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// ResetStats zeroes the port counters and the last-drop cause: after a
// reset the port reads as never having dropped, so a stale cause from a
// previous run can't leak into fresh accounting.
func (p *Port) ResetStats() {
	p.stats = PortStats{}
	p.lastDrop = nil
}

// SteerQueue computes the RX queue for a packet without delivering it.
func (p *Port) SteerQueue(pkt trace.Packet) int {
	switch p.steering {
	case FlowDirector:
		if q, ok := p.fdirTable[pkt.FlowID]; ok {
			return q
		}
		q := p.fdirNext
		p.fdirNext = (p.fdirNext + 1) % p.queues
		p.fdirTable[pkt.FlowID] = q
		return q
	default:
		return int(rssHash(pkt) % uint64(p.queues))
	}
}

// rssHash mixes the 5-tuple like the NIC's Toeplitz hash: deterministic,
// uniform-ish, and oblivious to queue load.
func rssHash(pkt trace.Packet) uint64 {
	v := uint64(pkt.SrcIP)<<32 | uint64(pkt.DstIP)
	v ^= uint64(pkt.SrcPort)<<48 | uint64(pkt.DstPort)<<32 | uint64(pkt.Proto)
	v *= 0x9e3779b97f4a7c15
	v ^= v >> 29
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 32
	return v
}

// Deliver lands one packet on the port: steer to a queue, allocate mbuf(s),
// run the prepare hook, DMA the bytes (DDIO into the LLC), and enqueue on
// the RX ring. Returns the queue used and whether the packet was accepted
// (queue is -1 when the frame never reached queue assignment).
func (p *Port) Deliver(pkt trace.Packet) (queue int, ok bool) {
	return p.deliver(pkt, -1)
}

// deliver is the shared RX path behind Deliver and DeliverPresteered. pre,
// when >= 0, is a queue already resolved by SteerBatch; -1 steers here.
func (p *Port) deliver(pkt trace.Packet, pre int) (queue int, ok bool) {
	// Wire loss and FCS rejection happen before steering: a frame the NIC
	// never accepts installs no FlowDirector rule and allocates no mbuf.
	if p.faults.Fire(faults.NICDrop) {
		p.drop(&p.stats.RxDropWire, errWireDrop, p.tm.dropWire, 0)
		return -1, false
	}
	if p.faults.Fire(faults.NICCorrupt) {
		p.drop(&p.stats.RxDropCorrupt, errCorruptDrop, p.tm.dropCorrupt, 0)
		return -1, false
	}
	q := pre
	if q < 0 {
		q = p.SteerQueue(pkt)
	}

	// AQM admission runs after steering and before buffer allocation: an
	// early drop costs no mempool slot and pollutes no LLC line with DDIO
	// fill (contrast tail-drop below, which discovers the full ring only
	// after both were spent).
	if p.aqm != nil {
		ring := p.rx[q]
		sojourn := 0.0
		if head := ring.Peek(); head != nil {
			if s := pkt.Timestamp - head.Pkt.Timestamp; s > 0 {
				sojourn = s
			}
		}
		if err := p.aqm[q].Admit(pkt.Timestamp, ring.Len(), ring.Capacity(), sojourn); err != nil {
			p.drop(&p.stats.RxDropAQM, err, p.tm.dropAQM, q)
			return q, false
		}
	}
	pool := p.pools[q]

	head := pool.Get()
	if head == nil {
		p.drop(&p.stats.RxDropPool, ErrPoolExhausted, p.tm.dropPool, q)
		return q, false
	}
	if p.prepare != nil {
		p.prepare(head, q)
	}
	head.Pkt = pkt

	// Fill the segment chain.
	remaining := pkt.Size
	seg := head
	segLen := min(remaining, seg.dataRoom)
	seg.dataLen = segLen
	remaining -= segLen
	for remaining > 0 {
		next := pool.Get()
		if next == nil {
			pool.Put(head)
			p.drop(&p.stats.RxDropPool, ErrPoolExhausted, p.tm.dropPool, q)
			return q, false
		}
		// Continuation segments don't need slice-aware placement; they
		// use the default headroom.
		next.headroom = min(DefaultHeadroom, next.headroomCap)
		segLen = min(remaining, next.dataRoom)
		next.dataLen = segLen
		remaining -= segLen
		seg.Next = next
		seg = next
		p.tm.segments.Inc(q)
	}

	// DMA each segment's bytes into memory; DDIO allocates the lines in
	// the LLC (this is the step CacheDirector's headroom choice targets).
	for s := head; s != nil; s = s.Next {
		p.machine.DMAWrite(s.DataPhys(), s.dataLen)
	}

	if p.faults.Fire(faults.RingOverflow) {
		pool.Put(head)
		p.drop(&p.stats.RxDropRing, errRingInjected, p.tm.dropRing, q)
		return q, false
	}
	if !p.rx[q].Enqueue(head) {
		pool.Put(head)
		p.drop(&p.stats.RxDropRing, ErrRingFull, p.tm.dropRing, q)
		return q, false
	}
	p.stats.RxPackets++
	p.tm.rxPackets.Inc(q)
	p.tm.rxBytes.Add(q, uint64(pkt.Size))
	return q, true
}

// drop books one RX loss against the total and its cause bucket.
func (p *Port) drop(bucket *uint64, cause error, ctr *telemetry.Counter, shard int) {
	p.stats.RxDropped++
	*bucket++
	p.lastDrop = cause
	ctr.Inc(shard)
}

// Pre-wrapped drop causes, so the hot path doesn't allocate per loss.
var (
	errWireDrop     = fmt.Errorf("%w: %w", ErrFrameDropped, faults.ErrInjected)
	errCorruptDrop  = fmt.Errorf("%w: %w: %w", ErrFrameDropped, ErrFrameCorrupt, faults.ErrInjected)
	errRingInjected = fmt.Errorf("%w: %w", ErrRingFull, faults.ErrInjected)
)

// RxBurstInto polls up to max packets from queue q (PMD receive),
// appending them to dst so a poll loop can reuse one scratch buffer
// instead of allocating a slice per burst.
func (p *Port) RxBurstInto(q, max int, dst []*Mbuf) []*Mbuf {
	return p.rx[q].DequeueBurstAppend(dst, p.faults.TruncateBurst(max))
}

// RxQueueLen reports the RX ring occupancy of queue q.
func (p *Port) RxQueueLen(q int) int { return p.rx[q].Len() }

// RxRingCap reports the RX ring capacity of queue q.
func (p *Port) RxRingCap(q int) int { return p.rx[q].Capacity() }

// TxBurst transmits a batch on queue q: bytes are counted and the mbufs
// return to their pool (the simulated wire has no further use for them).
func (p *Port) TxBurst(q int, ms []*Mbuf) int {
	for _, m := range ms {
		p.stats.TxBytes += uint64(m.PktLen())
		p.tm.txPackets.Inc(q)
		p.tm.txBytes.Add(q, uint64(m.PktLen()))
		m.pool.Put(m)
	}
	return len(ms)
}

// FlowRules reports the number of installed FlowDirector rules.
func (p *Port) FlowRules() int { return len(p.fdirTable) }
