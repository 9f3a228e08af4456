package nfv

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cpusim"
	"sliceaware/internal/dpdk"
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

func rxPacket(t *testing.T, m *cpusim.Machine, pkt trace.Packet) (*dpdk.Port, *dpdk.Mbuf) {
	t.Helper()
	port, err := dpdk.NewPort(m, dpdk.PortConfig{Queues: 1, RingSize: 32, PoolMbufs: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := port.Deliver(pkt); !ok {
		t.Fatal("deliver failed")
	}
	ms := port.RxBurstInto(0, 1, nil)
	if len(ms) != 1 {
		t.Fatal("no packet")
	}
	return port, ms[0]
}

func TestForwarder(t *testing.T) {
	m := newMachine(t)
	_, mb := rxPacket(t, m, trace.Packet{Size: 64, FlowID: 1})
	core := m.Core(0)
	before := core.Cycles()
	f := NewForwarder()
	if !f.Process(core, mb) {
		t.Fatal("forwarder dropped")
	}
	if core.Cycles() == before {
		t.Error("no cycles charged")
	}
	if f.Name() == "" {
		t.Error("empty name")
	}
	// Header line must now be dirty in L1 (the MAC swap wrote it).
	if !core.L1().Contains(mb.DataPhys() >> 6) {
		t.Error("header line not in L1 after processing")
	}
}

func TestRouterLPM(t *testing.T) {
	m := newMachine(t)
	r, err := NewRouter(m.Space)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd := func(prefix uint32, length int, nh uint16) {
		t.Helper()
		if err := r.AddRoute(prefix, length, nh); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0x0a000000, 8, 10)  // 10/8
	mustAdd(0x0a010000, 16, 20) // 10.1/16
	mustAdd(0x0a010200, 24, 30) // 10.1.2/24
	mustAdd(0x0a010203, 32, 40) // 10.1.2.3/32

	cases := []struct {
		ip   uint32
		want uint16
		ok   bool
	}{
		{0x0a000001, 10, true}, // 10.0.0.1 → /8
		{0x0a010001, 20, true}, // 10.1.0.1 → /16
		{0x0a010201, 30, true}, // 10.1.2.1 → /24
		{0x0a010203, 40, true}, // exact /32
		{0x0b000000, 0, false}, // no route
		{0x0a020000, 10, true}, // 10.2.0.0 → /8
	}
	for _, tc := range cases {
		nh, ok := r.Lookup(nil, tc.ip)
		if ok != tc.ok || (ok && nh != tc.want) {
			t.Errorf("Lookup(%#x) = %d,%v want %d,%v", tc.ip, nh, ok, tc.want, tc.ok)
		}
	}
	if r.routes != 4 {
		t.Errorf("Routes = %d", r.routes)
	}
}

// Longest-prefix match must agree with a naive reference implementation
// over randomized route sets.
func TestRouterMatchesNaive(t *testing.T) {
	m := newMachine(t)
	r, err := NewRouter(m.Space)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	type route struct {
		prefix uint32
		length int
		nh     uint16
	}
	var routes []route
	// Insert shortest-first so overlapping /24-covering writes behave
	// like real LPM precedence.
	for length := 8; length <= 32; length += 4 {
		for i := 0; i < 40; i++ {
			p := rng.Uint32() & prefixMask(length)
			nh := uint16(rng.Intn(1000) + 1)
			routes = append(routes, route{p, length, nh})
			if err := r.AddRoute(p, length, nh); err != nil {
				t.Fatal(err)
			}
		}
	}
	naive := func(ip uint32) (uint16, bool) {
		best, bestLen, found := uint16(0), -1, false
		for _, rt := range routes {
			// ≥ so a duplicate prefix replaces the earlier route, matching
			// real route-table update semantics.
			if ip&prefixMask(rt.length) == rt.prefix && rt.length >= bestLen {
				best, bestLen, found = rt.nh, rt.length, true
			}
		}
		return best, found
	}
	mismatches := 0
	for i := 0; i < 20000; i++ {
		ip := rng.Uint32()
		wantNH, wantOK := naive(ip)
		gotNH, gotOK := r.Lookup(nil, ip)
		if gotOK != wantOK || (gotOK && gotNH != wantNH) {
			mismatches++
			if mismatches < 5 {
				t.Errorf("ip %#x: got %d,%v want %d,%v", ip, gotNH, gotOK, wantNH, wantOK)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/20000 mismatches vs naive LPM", mismatches)
	}
}

// refLPM is the per-entry DIR-24-8 fill: every /≤24 bucket is written one
// at a time, and a bucket that holds a group has its uncovered slots
// filled instead.
type refLPM struct {
	tbl24 []uint16
	tbl8  [][]uint16
}

func (t *refLPM) add(prefix uint32, length int, nh uint16) {
	prefix &= prefixMask(length)
	if length <= 24 {
		for b := prefix >> 8; b < prefix>>8+1<<uint(24-length); b++ {
			if e := t.tbl24[b]; e&lpmGroup != 0 {
				for j, ge := range t.tbl8[e&lpmMask] {
					if ge&lpmValid == 0 {
						t.tbl8[e&lpmMask][j] = lpmValid | nh
					}
				}
				continue
			}
			t.tbl24[b] = lpmValid | nh
		}
		return
	}
	e, g := t.tbl24[prefix>>8], make([]uint16, 256)
	if e&lpmGroup != 0 {
		g = t.tbl8[e&lpmMask]
	} else {
		for j := range g {
			g[j] = e
		}
		t.tbl24[prefix>>8] = lpmValid | lpmGroup | uint16(len(t.tbl8))
		t.tbl8 = append(t.tbl8, g)
	}
	for i := prefix & 0xff; i < prefix&0xff+1<<uint(32-length); i++ {
		g[i] = lpmValid | nh
	}
}

// AddRoute's bulk fill of a table without groups must leave tbl24 and tbl8
// bit-identical to the per-entry fill, before and after groups exist.
func TestRouterTablesMatchPerEntryFill(t *testing.T) {
	type route struct {
		prefix uint32
		length int
		nh     uint16
	}
	populate := []route{{0, 0, 1}}
	for i := 1; i < 3120; i++ { // PopulateDefaultAndRandom(3120)
		populate = append(populate, route{uint32(i*2654435761) | 0x0100_0000, 8 + i%17, uint16(i%1000 + 2)})
	}
	longFirst := []route{{0x0a010203, 32, 40}, {0x0a010280, 25, 41}, {0x0a000000, 8, 10}, {0, 0, 1}, {0x0a010200, 24, 30}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		length := 1 + rng.Intn(32)
		longFirst = append(longFirst, route{rng.Uint32() & prefixMask(length), length, uint16(rng.Intn(1000))})
	}
	for name, routes := range map[string][]route{"populate-3120": populate, "groups-first": longFirst} {
		r, err := NewRouter(newMachine(t).Space)
		if err != nil {
			t.Fatal(err)
		}
		if name == "populate-3120" {
			err = r.PopulateDefaultAndRandom(3120)
		}
		ref := &refLPM{tbl24: make([]uint16, 1<<24)}
		for _, rt := range routes {
			if name != "populate-3120" {
				err = errors.Join(err, r.AddRoute(rt.prefix, rt.length, rt.nh))
			}
			ref.add(rt.prefix, rt.length, rt.nh)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.tbl24, ref.tbl24) {
			t.Errorf("%s: tbl24 differs from the per-entry fill", name)
		}
		if !reflect.DeepEqual(r.tbl8, ref.tbl8) {
			t.Errorf("%s: tbl8 differs from the per-entry fill (%d groups, reference %d)", name, len(r.tbl8), len(ref.tbl8))
		}
	}
}

func TestRouterValidation(t *testing.T) {
	m := newMachine(t)
	r, err := NewRouter(m.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddRoute(0, 33, 1); err == nil {
		t.Error("length 33 accepted")
	}
	if err := r.AddRoute(0, -1, 1); err == nil {
		t.Error("negative length accepted")
	}
	if err := r.AddRoute(0, 8, 1<<14); err == nil {
		t.Error("oversized next hop accepted")
	}
}

func TestRouterProcessAndOffload(t *testing.T) {
	m := newMachine(t)
	r, err := NewRouter(m.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PopulateDefaultAndRandom(3120); err != nil {
		t.Fatal(err)
	}
	if r.routes != 3120 {
		t.Errorf("Routes = %d, want 3120 (the §5.2 table)", r.routes)
	}
	_, mb := rxPacket(t, m, trace.Packet{Size: 64, DstIP: 0x0a0a0a0a})
	core := m.Core(0)
	if !r.Process(core, mb) {
		t.Error("routed packet dropped (default route exists)")
	}
	// HW offload must cost fewer cycles (no LPM memory walk).
	m2 := newMachine(t)
	r2, err := NewRouter(m2.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.PopulateDefaultAndRandom(3120); err != nil {
		t.Fatal(err)
	}
	r2.HWOffload = true
	_, mb2 := rxPacket(t, m2, trace.Packet{Size: 64, DstIP: 0x0a0a0a0a})
	core2 := m2.Core(0)
	// Warm both paths first so the comparison isolates the LPM walk.
	r.Process(core, mb)
	r2.Process(core2, mb2)
	b1 := core.Cycles()
	r.Process(core, mb)
	swCost := core.Cycles() - b1
	b2 := core2.Cycles()
	r2.Process(core2, mb2)
	hwCost := core2.Cycles() - b2
	if hwCost >= swCost {
		t.Errorf("HW-offloaded router cost %d ≥ software cost %d", hwCost, swCost)
	}
}

func TestFlowTable(t *testing.T) {
	m := newMachine(t)
	ft, err := NewFlowTable(m.Space, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ft.Lookup(nil, 42); ok {
		t.Error("hit in empty table")
	}
	if err := ft.Insert(nil, 42, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := ft.Lookup(nil, 42); !ok || v != 7 {
		t.Errorf("Lookup = %d,%v", v, ok)
	}
	if err := ft.Insert(nil, 42, 8); err != nil { // overwrite
		t.Fatal(err)
	}
	if v, _ := ft.Lookup(nil, 42); v != 8 {
		t.Errorf("overwrite lost: %d", v)
	}
	if n := flows(ft); n != 1 {
		t.Errorf("%d flows", n)
	}
	// Key 0 must work (offset encoding).
	if err := ft.Insert(nil, 0, 99); err != nil {
		t.Fatal(err)
	}
	if v, ok := ft.Lookup(nil, 0); !ok || v != 99 {
		t.Errorf("key 0: %d,%v", v, ok)
	}
	// Fill to capacity; overflow must error.
	for k := uint64(1); ; k++ {
		if err := ft.Insert(nil, k, k); err != nil {
			break
		}
		if flows(ft) > 64 {
			t.Fatal("table exceeded capacity")
		}
	}
	if n := flows(ft); n != 64 {
		t.Errorf("%d flows in the full table, want 64", n)
	}
	// All inserted keys still resolve after heavy probing.
	for k := uint64(1); k < 60; k++ {
		if v, ok := ft.Lookup(nil, k); !ok || v != k {
			t.Fatalf("key %d lost after fill: %d,%v", k, v, ok)
		}
	}
	if _, err := NewFlowTable(m.Space, 63); err == nil {
		t.Error("non-power-of-two buckets accepted")
	}
}

func TestFlowTableChargesAccesses(t *testing.T) {
	m := newMachine(t)
	ft, err := NewFlowTable(m.Space, 1024)
	if err != nil {
		t.Fatal(err)
	}
	core := m.Core(0)
	before := core.Stats().Reads
	ft.Insert(core, 5, 5)
	ft.Lookup(core, 5)
	if core.Stats().Reads == before {
		t.Error("table operations charged no memory accesses")
	}
}

// flows counts the table's occupied buckets.
func flows(t *FlowTable) int {
	n := 0
	for _, k := range t.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

func TestNAPT(t *testing.T) {
	m := newMachine(t)
	n, err := NewNAPT(m.Space, 1024, 0xc0a80001)
	if err != nil {
		t.Fatal(err)
	}
	core := m.Core(0)
	_, mb := rxPacket(t, m, trace.Packet{Size: 64, FlowID: 100})
	if !n.Process(core, mb) {
		t.Fatal("NAPT dropped")
	}
	p1, ok := n.table.Lookup(nil, 100)
	if !ok {
		t.Fatal("no translation installed")
	}
	// Same flow keeps its translation; a new flow gets a fresh port.
	if !n.Process(core, mb) {
		t.Fatal("second packet dropped")
	}
	if p2, _ := n.table.Lookup(nil, 100); p2 != p1 {
		t.Errorf("translation changed: %d → %d", p1, p2)
	}
	mb.Pkt.FlowID = 101
	n.Process(core, mb)
	p3, _ := n.table.Lookup(nil, 101)
	if p3 == p1 {
		t.Error("two flows share an external port")
	}
	if f := flows(n.table); f != 2 {
		t.Errorf("Flows = %d", f)
	}
	if n.Name() == "" {
		t.Error("empty name")
	}
}

func TestLoadBalancerRoundRobinSticky(t *testing.T) {
	m := newMachine(t)
	lb, err := NewLoadBalancer(m.Space, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	core := m.Core(0)
	_, mb := rxPacket(t, m, trace.Packet{Size: 64})
	// 8 flows → 2 per backend, round robin.
	for f := uint64(0); f < 8; f++ {
		mb.Pkt.FlowID = f
		if !lb.Process(core, mb) {
			t.Fatal("LB dropped")
		}
	}
	for f := uint64(0); f < 8; f++ {
		b, ok := lb.table.Lookup(nil, f)
		if !ok {
			t.Fatalf("flow %d unpinned", f)
		}
		if b != f%4 {
			t.Errorf("flow %d → backend %d, want %d", f, b, f%4)
		}
	}
	// Stickiness: replaying flow 0 must not move it.
	mb.Pkt.FlowID = 0
	if !lb.Process(core, mb) {
		t.Fatal("LB dropped a pinned flow")
	}
	if b, _ := lb.table.Lookup(nil, 0); b != 0 {
		t.Errorf("flow 0 moved to backend %d", b)
	}
	if _, err := NewLoadBalancer(m.Space, 64, 0); err == nil {
		t.Error("zero backends accepted")
	}
	if lb.Name() == "" {
		t.Error("empty name")
	}
}

func TestChain(t *testing.T) {
	m := newMachine(t)
	r, err := NewRouter(m.Space)
	if err != nil {
		t.Fatal(err)
	}
	r.HWOffload = true
	n, err := NewNAPT(m.Space, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLoadBalancer(m.Space, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewChain("Router-NAPT-LB", r, n, lb)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Name() != "Router-NAPT-LB" || len(chain.nfs) != 3 {
		t.Error("chain metadata broken")
	}
	core := m.Core(0)
	_, mb := rxPacket(t, m, trace.Packet{Size: 128, FlowID: 5, DstIP: 9})
	before := core.Cycles()
	if !chain.Process(core, mb) {
		t.Fatal("chain dropped the packet")
	}
	if core.Cycles()-before < forwardComputeCycles {
		t.Error("chain charged implausibly few cycles")
	}
	if f := flows(n.table); f != 1 {
		t.Errorf("NAPT flows = %d", f)
	}
	if _, ok := lb.table.Lookup(nil, 5); !ok {
		t.Error("LB did not pin the flow")
	}
	if _, err := NewChain("empty"); err == nil {
		t.Error("empty chain accepted")
	}
}

// A chain where an NF drops must stop processing.
type dropNF struct{ hits int }

func (d *dropNF) Name() string                              { return "drop" }
func (d *dropNF) Process(c *cpusim.Core, m *dpdk.Mbuf) bool { d.hits++; return false }

func TestChainStopsOnDrop(t *testing.T) {
	m := newMachine(t)
	d := &dropNF{}
	after := &dropNF{}
	chain, err := NewChain("drop-first", d, after)
	if err != nil {
		t.Fatal(err)
	}
	_, mb := rxPacket(t, m, trace.Packet{Size: 64})
	if chain.Process(m.Core(0), mb) {
		t.Error("dropped packet reported processed")
	}
	if d.hits != 1 || after.hits != 0 {
		t.Errorf("hits = %d/%d, want 1/0", d.hits, after.hits)
	}
}
