// Package kvs emulates the DPDK key-value store of §3.1 (Fig 8): one core
// serves GET/SET requests for 64 B keys and values that arrive in 128 B
// TCP packets, with the value store either allocated normally (contiguous,
// spread over every LLC slice by Complex Addressing) or slice-aware.
//
// Slice-aware placement follows the strategy the paper prescribes for
// datasets larger than a slice (§3.1, §8): the most frequently used values
// — and their index lines — are homed to the serving core's closest slice,
// so the popular keys the LLC retains are served at local-slice latency.
// The full 1 GB / 2²⁴-value store of the paper is scaled to a simulator-
// friendly key count; the regime (hot set fits a slice, store exceeds the
// LLC) is preserved and recorded in EXPERIMENTS.md.
package kvs

import (
	"errors"
	"fmt"

	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
	"sliceaware/internal/faults"
	"sliceaware/internal/interconnect"
	"sliceaware/internal/overload"
	"sliceaware/internal/phys"
	"sliceaware/internal/slicemem"
	"sliceaware/internal/telemetry"
	"sliceaware/internal/trace"
	"sliceaware/internal/zipf"
)

// Request/response sizing from the paper: 64 B keys and values carried in
// 128 B TCP packets.
const (
	ValueSize   = 64
	RequestSize = 128
)

// parseComputeCycles is the instruction cost of protocol parsing, key
// hashing and response construction per request.
const parseComputeCycles = 40

// Config describes a store instance.
type Config struct {
	// Keys is the number of 64 B values (the paper uses 2²⁴; the default
	// experiment scales this down — see package comment).
	Keys uint64
	// ServingCore is the single core that receives and serves requests.
	ServingCore int
	// SliceAware homes hot values and index lines to the serving core's
	// preferred slice; otherwise everything is contiguous.
	SliceAware bool
	// HotLines is how many of the hottest values are slice-homed when
	// SliceAware is set. Zero means "as many as fit half a slice plus L2",
	// echoing the working-set sizing of §3.
	HotLines int
	// ValueSize is the value size in bytes (default 64). Values larger
	// than one line are scatter-laid across same-slice lines — the §8
	// linked-line scheme for data beyond the hash granularity.
	ValueSize int
}

// Store is the emulated KVS server.
type Store struct {
	cfg     Config
	machine *cpusim.Machine
	core    *cpusim.Core
	port    *dpdk.Port
	rxSlot  [1]*dpdk.Mbuf // RX scratch for step's one-request poll

	valueAddr []uint64 // VAs of value lines, linesPerValue() per key
	indexBase uint64   // contiguous index region (8 B entries)
	hotIndex  []uint64 // slice-homed index lines for the hot prefix (8 keys/line)

	// hotCounts tracks per-key accesses for migration (nil = disabled).
	hotCounts []uint32

	// faults injects swap contention into migration; retry bounds the
	// fight against it (zero value = defaults); breaker optionally fails
	// the whole pass fast when contention is persistent (nil = disabled).
	faults  *faults.Injector
	retry   RetryPolicy
	breaker *overload.Breaker

	// footprint models the protocol/connection state the server touches
	// per request (socket structures, stack, allocator metadata); it
	// cycles through a region larger than L1 so value and index lines do
	// not linger in the private caches, as they would not on a busy
	// server.
	footprint    []uint64
	footprintPos int

	gets, sets uint64

	// Request and migration activity counters; nil handles no-op.
	ctrGets     *telemetry.Counter
	ctrSets     *telemetry.Counter
	ctrDropped  *telemetry.Counter
	ctrMigrated *telemetry.Counter
	ctrRetries  *telemetry.Counter
	ctrSkipped  *telemetry.Counter
	ctrBrkSkips *telemetry.Counter
}

// SetTelemetry instruments the store: request outcome counters (sharded
// by the serving core) and migration activity counters.
func (s *Store) SetTelemetry(c *telemetry.Collector) {
	reg := c.Registry()
	s.ctrGets = reg.CounterL("kvs_requests_total", "Requests served by outcome", `op="get"`)
	s.ctrSets = reg.CounterL("kvs_requests_total", "Requests served by outcome", `op="set"`)
	s.ctrDropped = reg.CounterL("kvs_requests_total", "Requests served by outcome", `op="dropped"`)
	s.ctrMigrated = reg.CounterL("kvs_migration_keys_total", "MigrateTopK key outcomes", `outcome="migrated"`)
	s.ctrRetries = reg.CounterL("kvs_migration_keys_total", "MigrateTopK key outcomes", `outcome="retried"`)
	s.ctrSkipped = reg.CounterL("kvs_migration_keys_total", "MigrateTopK key outcomes", `outcome="skipped"`)
	s.ctrBrkSkips = reg.CounterL("kvs_migration_keys_total", "MigrateTopK key outcomes", `outcome="breaker_skipped"`)
	s.port.SetTelemetry(c)
}

// footprintBytes sizes the per-request protocol state region and
// footprintAccesses is how many of its lines each request touches.
const (
	footprintBytes    = 128 << 10
	footprintAccesses = 2
)

// New builds a store on the machine. Rank order equals key order (MICA's
// Zipf generator produces ranks, and the emulator identifies key k with
// rank k).
func New(machine *cpusim.Machine, cfg Config) (*Store, error) {
	if cfg.Keys == 0 {
		return nil, fmt.Errorf("kvs: need at least one key")
	}
	if cfg.ServingCore < 0 || cfg.ServingCore >= machine.Cores() {
		return nil, fmt.Errorf("kvs: serving core %d out of range", cfg.ServingCore)
	}
	s := &Store{cfg: cfg, machine: machine, core: machine.Core(cfg.ServingCore)}

	port, err := dpdk.NewPort(machine, dpdk.PortConfig{
		Queues: 1, RingSize: 1024, PoolMbufs: 2048,
		HeadroomCap: dpdk.CacheDirectorHeadroom,
	})
	if err != nil {
		return nil, err
	}
	s.port = port

	if cfg.ValueSize == 0 {
		cfg.ValueSize = ValueSize
		s.cfg.ValueSize = ValueSize
	}
	if cfg.ValueSize < 0 {
		return nil, fmt.Errorf("kvs: negative value size")
	}
	lp := s.linesPerValue()

	prof := machine.Profile
	hot := cfg.HotLines
	if hot == 0 {
		// Hot budget in lines (half a slice plus the L2, §3), expressed
		// in whole values.
		hot = (prof.LLCSlice.SizeBytes/2 + prof.L2.SizeBytes) / 64 / lp
	}
	if uint64(hot) > cfg.Keys {
		hot = int(cfg.Keys)
	}

	s.valueAddr = make([]uint64, int(cfg.Keys)*lp)
	if cfg.SliceAware {
		alloc, err := slicemem.New(machine.Space, machine.LLC.Hash())
		if err != nil {
			return nil, err
		}
		target := slicemem.PreferredSlices(machine.Topo, cfg.ServingCore)[0]
		// Hot values: every line of every hot value homed to the target
		// slice (multi-line values use the §8 scatter layout).
		hotRegion, err := alloc.AllocLines(target, hot*lp)
		if err != nil {
			return nil, fmt.Errorf("kvs: hot value placement: %w", err)
		}
		copy(s.valueAddr, hotRegion.Lines())
		if rest := int(cfg.Keys) - hot; rest > 0 {
			cold, err := alloc.AllocContiguous(rest * lp * 64)
			if err != nil {
				return nil, fmt.Errorf("kvs: cold value store: %w", err)
			}
			copy(s.valueAddr[hot*lp:], cold.Lines())
		}
		// Hot index lines (8 B entries, 8 keys per line) go to the same
		// slice; the cold index tail is contiguous.
		hotIdxLines := (hot + 7) / 8
		idxRegion, err := alloc.AllocLines(target, hotIdxLines)
		if err != nil {
			return nil, fmt.Errorf("kvs: hot index placement: %w", err)
		}
		s.hotIndex = idxRegion.Lines()
		coldIdx, err := alloc.AllocContiguous(int(cfg.Keys+7) / 8 * 64)
		if err != nil {
			return nil, fmt.Errorf("kvs: cold index: %w", err)
		}
		s.indexBase = coldIdx.Line(0)
	} else {
		m, err := machine.Space.Map(cfg.Keys*uint64(lp)*64, phys.PageSize1G)
		if err != nil {
			return nil, fmt.Errorf("kvs: value store: %w", err)
		}
		for i := range s.valueAddr {
			s.valueAddr[i] = m.VirtBase + uint64(i)*64
		}
		idx, err := machine.Space.Map((cfg.Keys+7)/8*64, phys.PageSize1G)
		if err != nil {
			return nil, fmt.Errorf("kvs: index: %w", err)
		}
		s.indexBase = idx.VirtBase
	}
	fp, err := machine.Space.Map(footprintBytes, phys.PageSize2M)
	if err != nil {
		return nil, fmt.Errorf("kvs: footprint: %w", err)
	}
	s.footprint = make([]uint64, footprintBytes/64)
	for i := range s.footprint {
		s.footprint[i] = fp.VirtBase + uint64(i)*64
	}
	return s, nil
}

// indexLineAddr returns the address of the index line covering key.
func (s *Store) indexLineAddr(key uint64) uint64 {
	line := key / 8
	if s.cfg.SliceAware && line < uint64(len(s.hotIndex)) {
		return s.hotIndex[line]
	}
	return s.indexBase + line*64
}

// linesPerValue returns the 64 B lines one value occupies.
func (s *Store) linesPerValue() int {
	vs := s.cfg.ValueSize
	if vs == 0 {
		vs = ValueSize
	}
	return (vs + 63) / 64
}

// valueLines returns the line addresses backing a key's value.
func (s *Store) valueLines(key uint64) []uint64 {
	lp := s.linesPerValue()
	return s.valueAddr[int(key)*lp : int(key+1)*lp]
}

// Serve handles one request already resident in an mbuf: parse, index
// lookup, value access, response write.
func (s *Store) serve(mb *dpdk.Mbuf, key uint64, isGet bool) {
	core := s.core
	// Parse the request header+key (first line of the packet, DDIO'd).
	core.Read(mb.DataVA())
	core.AddCycles(parseComputeCycles)
	// Touch the protocol/connection state this request needs.
	for i := 0; i < footprintAccesses; i++ {
		core.Read(s.footprint[s.footprintPos])
		s.footprintPos++
		if s.footprintPos == len(s.footprint) {
			s.footprintPos = 0
		}
	}
	// Index lookup.
	core.Read(s.indexLineAddr(key))
	if s.hotCounts != nil {
		s.hotCounts[key]++
	}
	if isGet {
		// Read the value and write it into the response payload.
		for i, va := range s.valueLines(key) {
			core.Read(va)
			core.Write(mb.DataVA() + 64 + uint64(i*64))
		}
		s.gets++
	} else {
		// SET: write the value from the payload.
		for i, va := range s.valueLines(key) {
			core.Read(mb.DataVA() + 64 + uint64(i*64))
			core.Write(va)
		}
		s.sets++
	}
}

// Workload drives a store run.
type Workload struct {
	GetRatio float64 // fraction of GETs, e.g. 1.0, 0.95, 0.5
	Keys     zipf.Generator
	Requests int
}

// Result reports a run's aggregate performance.
type Result struct {
	CyclesPerReq float64
	TPSMillions  float64 // transactions per second, millions
	Gets, Sets   uint64
	Dropped      uint64
}

// Run pushes the workload through the server core and reports TPS. The
// client stresses the server (requests are always available), so TPS is
// serving-rate-bound, as in the paper's server-side measurement.
func (s *Store) Run(w Workload) (Result, error) {
	if w.Requests <= 0 {
		return Result{}, fmt.Errorf("kvs: need a positive request count")
	}
	if w.GetRatio < 0 || w.GetRatio > 1 {
		return Result{}, fmt.Errorf("kvs: GET ratio %v outside [0,1]", w.GetRatio)
	}
	if w.Keys == nil {
		return Result{}, fmt.Errorf("kvs: nil key generator")
	}
	if w.Keys.N() > s.cfg.Keys {
		return Result{}, fmt.Errorf("kvs: generator covers %d keys, store holds %d", w.Keys.N(), s.cfg.Keys)
	}

	start := s.core.Cycles()
	var dropped uint64
	// Deterministic GET/SET interleaving at the configured ratio.
	var acc float64
	for i := 0; i < w.Requests; i++ {
		key := w.Keys.Next()
		acc += w.GetRatio
		isGet := acc >= 1
		if isGet {
			acc--
		}
		if !s.step(key, isGet) {
			dropped++
		}
	}
	cycles := s.core.Cycles() - start
	res := Result{
		CyclesPerReq: float64(cycles) / float64(w.Requests),
		Gets:         s.gets,
		Sets:         s.sets,
		Dropped:      dropped,
	}
	res.TPSMillions = s.machine.Profile.FrequencyHz / res.CyclesPerReq / 1e6
	return res, nil
}

// ErrDropped marks a request lost at the simulated NIC (ring full or
// mempool exhausted) before it reached the serving core.
var ErrDropped = errors.New("kvs: request dropped at NIC")

// ServeOne pushes a single request through the NIC→ring→serve path and
// returns the serving-core cycles it consumed. Run owns pacing for batch
// experiments; ServeOne is the entry point for the live daemon
// (cmd/slicekvsd), where the network — not the harness — decides when the
// next request arrives. Not safe for concurrent use: the simulated machine
// is single-threaded, so exactly one goroutine (the shard worker) may own
// a Store.
func (s *Store) ServeOne(key uint64, isGet bool) (uint64, error) {
	if key >= s.cfg.Keys {
		return 0, fmt.Errorf("kvs: key %d outside store of %d keys", key, s.cfg.Keys)
	}
	start := s.core.Cycles()
	if !s.step(key, isGet) {
		return 0, ErrDropped
	}
	return s.core.Cycles() - start, nil
}

// step pushes one request through Deliver → RX → serve → count → TxBurst
// on the serving core, receiving into the store's one-slot scratch so a
// request allocates nothing. It reports false (and counts the drop) when
// the NIC refused the request or the RX poll came back empty.
func (s *Store) step(key uint64, isGet bool) bool {
	pkt := trace.Packet{Size: RequestSize, FlowID: key, SrcIP: uint32(key), DstIP: 1, Proto: 6}
	if _, ok := s.port.Deliver(pkt); !ok {
		s.ctrDropped.Inc(s.cfg.ServingCore)
		return false
	}
	ms := s.port.RxBurstInto(0, 1, s.rxSlot[:0])
	if len(ms) != 1 {
		s.ctrDropped.Inc(s.cfg.ServingCore)
		return false
	}
	s.serve(ms[0], key, isGet)
	if isGet {
		s.ctrGets.Inc(s.cfg.ServingCore)
	} else {
		s.ctrSets.Inc(s.cfg.ServingCore)
	}
	s.port.TxBurst(0, ms)
	return true
}

// Counts reports the lifetime GET/SET totals the serving core completed —
// the daemon's drain checkpoint records them per shard.
func (s *Store) Counts() (gets, sets uint64) { return s.gets, s.sets }

// RestoreCounts seeds the lifetime GET/SET totals from a recovered
// snapshot, so counters survive a warm restart instead of resetting to
// zero. Single-threaded like every other store access; the daemon calls
// it during recovery, before the worker starts serving.
func (s *Store) RestoreCounts(gets, sets uint64) { s.gets, s.sets = gets, sets }

// PreferredSlice reports the slice hot data is homed to (slice-aware mode).
func (s *Store) PreferredSlice() int {
	return interconnect.Preferences(s.machine.Topo)[s.cfg.ServingCore].Primary
}
