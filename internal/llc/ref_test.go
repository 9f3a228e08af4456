package llc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sliceaware/internal/arch"
	"sliceaware/internal/cachesim"
	"sliceaware/internal/chash"
)

// refLLC is the sliced LLC written the plain way: one private cache per
// slice (cachesim's own fuzz target checks those against its reference
// model), the hash's ground truth for routing, and maps for the leaky-DMA
// bookkeeping. SlicedLLC must agree with it on every result and counter;
// in particular one slice's eviction or FlushAll must not disturb a line
// another slice holds, which a shared line index could get wrong.
type refLLC struct {
	hash           chash.Hash
	slices         []*cachesim.Cache
	events         []CBoEvents
	unread, leaked map[uint64]bool
	ddio           cachesim.WayMask
}

func newRefLLC(p *arch.Profile, h chash.Hash) *refLLC {
	r := &refLLC{
		hash:   h,
		events: make([]CBoEvents, p.Slices),
		unread: map[uint64]bool{},
		leaked: map[uint64]bool{},
		ddio:   cachesim.MaskOfWayRange(p.LLCSlice.Ways-p.DDIOWays, p.LLCSlice.Ways),
	}
	for i := 0; i < p.Slices; i++ {
		r.slices = append(r.slices, cachesim.MustNew("ref", p.LLCSlice.Sets(), p.LLCSlice.Ways))
	}
	return r
}

func (r *refLLC) lookup(pa uint64, write bool) (bool, int) {
	s, line := r.hash.Slice(pa), pa>>6
	r.events[s].Lookups++
	hit := r.slices[s].Lookup(line, write)
	switch {
	case hit && r.unread[line]:
		delete(r.unread, line)
		r.events[s].DDIOFirstTouchHits++
	case !hit:
		r.events[s].Misses++
		if r.leaked[line] {
			delete(r.leaked, line)
			r.events[s].DDIOMissedFirstTouch++
		}
	}
	return hit, s
}

func (r *refLLC) evicted(s int, v cachesim.Victim) {
	if !v.Evicted {
		return
	}
	r.events[s].Evictions++
	if r.unread[v.Line] {
		delete(r.unread, v.Line)
		r.leaked[v.Line] = true
		r.events[s].DDIOEvictUnread++
	}
}

func (r *refLLC) insert(pa uint64, dirty bool, mask cachesim.WayMask) (cachesim.Victim, int) {
	s, line := r.hash.Slice(pa), pa>>6
	v := r.slices[s].Insert(line, dirty, mask)
	r.evicted(s, v)
	delete(r.unread, line)
	delete(r.leaked, line)
	return v, s
}

func (r *refLLC) dmaInsert(pa uint64) (cachesim.Victim, int) {
	s, line := r.hash.Slice(pa), pa>>6
	v := r.slices[s].Insert(line, true, r.ddio)
	r.events[s].DDIOFills++
	r.evicted(s, v)
	r.unread[line] = true
	delete(r.leaked, line)
	return v, s
}

func (r *refLLC) invalidate(pa uint64) (bool, bool) {
	line := pa >> 6
	delete(r.unread, line)
	delete(r.leaked, line)
	return r.slices[r.hash.Slice(pa)].Invalidate(line)
}

func (r *refLLC) flushAll() (writebacks int) {
	for _, s := range r.slices {
		writebacks += s.FlushAll()
	}
	r.unread, r.leaked = map[uint64]bool{}, map[uint64]bool{}
	return writebacks
}

func (r *refLLC) setDDIOWays(n int) int {
	total := r.slices[0].Ways()
	n = max(1, min(n, total))
	r.ddio = cachesim.MaskOfWayRange(total-n, total)
	return n
}

// llcPABases put decoded addresses in low memory, at the 128 GiB edge of
// the shared index's dense range, and far above it.
var llcPABases = [4]uint64{0, 1 << 30, 1 << 37, 1 << 52}

// pa decodes two bytes into a physical address in set 0 of every slice —
// 64 lines per base, 256 in all, so each slice's one set is offered more
// lines than it has ways and fills, evicts and hits — with a few low bits
// inside the line. One set, not several, is what lets a short program
// fill it.
func (o *llcOps) pa() uint64 {
	b0, b1 := o.byte(), o.byte()
	return llcPABases[b1>>6] | uint64(b0>>2)<<17 | uint64(b1&63)
}

type llcOps struct {
	data []byte
	pos  int
}

func (o *llcOps) byte() byte {
	if o.pos >= len(o.data) {
		return 0
	}
	o.pos++
	return o.data[o.pos-1]
}

func (o *llcOps) mask() cachesim.WayMask {
	switch b := o.byte(); b % 4 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return cachesim.AllWays
	default:
		return cachesim.MaskOfWayRange(int(b>>2)%20, 20)
	}
}

// checkLLCAgainstRef runs the program encoded in data on a SlicedLLC and on
// refLLC. After each operation it compares the result, the counters, every
// slice's occupancy and the resident lines of the slices the operation
// touched; at the end, every slice's lines and its lines in the DDIO ways.
// The first byte picks the Haswell or the Skylake profile and hash; sets,
// when not 0, replaces the profile's per-slice set count.
func checkLLCAgainstRef(t *testing.T, data []byte, sets int) {
	o := &llcOps{data: data}
	p, h := arch.HaswellE52667v3(), chash.Hash(chash.Haswell8())
	if o.byte()&1 == 1 {
		p = arch.SkylakeGold6134()
		g, err := chash.ForProfileSlices(p.Slices)
		if err != nil {
			t.Fatal(err)
		}
		h = g
	}
	if sets != 0 {
		p.LLCSlice.SizeBytes = sets * p.LLCSlice.Ways * p.LLCSlice.LineSize
	}
	runLLCAgainstRef(t, p, h, o)
}

// runLLCAgainstRef runs the rest of o's program on a SlicedLLC for p and h
// and on refLLC.
func runLLCAgainstRef(t *testing.T, p *arch.Profile, h chash.Hash, o *llcOps) {
	l, err := New(p, h)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefLLC(p, h)
	for step := 0; o.pos < len(o.data); step++ {
		op := o.byte()
		var got, want any
		// touched is the slice whose lines the op may change: -1 for none,
		// len(r.slices) for every slice.
		touched := -1
		switch op % 8 {
		case 0, 7:
			pa, write := o.pa(), op&0x40 != 0
			h1, s1 := l.Lookup(pa, write)
			h2, s2 := r.lookup(pa, write)
			got, want, touched = [2]any{h1, s1}, [2]any{h2, s2}, s2
		case 1:
			pa, dirty, m := o.pa(), op&8 != 0, o.mask()
			v1, s1 := l.Insert(pa, dirty, m)
			v2, s2 := r.insert(pa, dirty, m)
			got, want, touched = [2]any{v1, s1}, [2]any{v2, s2}, s2
		case 2, 3:
			pa := o.pa()
			v1, s1 := l.DMAInsert(pa)
			v2, s2 := r.dmaInsert(pa)
			got, want, touched = [2]any{v1, s1}, [2]any{v2, s2}, s2
		case 4:
			pa := o.pa()
			p1, d1 := l.Invalidate(pa)
			p2, d2 := r.invalidate(pa)
			got, want, touched = [2]bool{p1, d1}, [2]bool{p2, d2}, r.hash.Slice(pa)
		case 5:
			pa := o.pa()
			got, want = l.Contains(pa), r.slices[r.hash.Slice(pa)].Contains(pa>>6)
			if op&8 != 0 { // ask a slice that may not own the line
				s := int(op>>4) % l.Slices()
				got, want = l.SliceCache(s).Contains(pa>>6), r.slices[s].Contains(pa>>6)
			}
		case 6:
			switch op {
			case 6: // rare: a flush empties everything
				if o.byte() < 64 { // rarer still, so the slices fill between flushes
					got, want, touched = l.FlushAll(), r.flushAll(), len(r.slices)
				}
			case 14: // flush one slice and leave the others' lines alone
				s := int(o.byte()) % l.Slices()
				got, want, touched = l.SliceCache(s).FlushAll(), r.slices[s].FlushAll(), s
			default:
				// 0, 1, 3, 7, 15 or 31 ways: mostly a narrow DDIO partition,
				// which DMA fills churn, and both clamps.
				n := 1<<(op>>3%6) - 1
				got, want = l.SetDDIOWays(n), r.setDDIOWays(n)
			}
		}
		if got != want {
			t.Fatalf("step %d (op %d): llc %+v, reference %+v", step, op%8, got, want)
		}
		if ev := l.AllEvents(); !slices.Equal(ev, r.events) {
			t.Fatalf("step %d (op %d): events %+v, reference %+v", step, op%8, ev, r.events)
		}
		// Every slice's occupancy, so an op on one slice cannot disturb
		// another unseen, and the resident lines of the slices it touched.
		for s, ref := range r.slices {
			c := l.SliceCache(s)
			if c.MaskLen(cachesim.AllWays) != ref.MaskLen(cachesim.AllWays) {
				t.Fatalf("step %d (op %d): slice %d holds %d lines, reference %d",
					step, op%8, s, c.MaskLen(cachesim.AllWays), ref.MaskLen(cachesim.AllWays))
			}
			if (s == touched || touched == len(r.slices)) && !slices.Equal(c.Lines(), ref.Lines()) {
				t.Fatalf("step %d (op %d): slice %d's resident lines differ from the reference", step, op%8, s)
			}
		}
	}
	for s, ref := range r.slices {
		c := l.SliceCache(s)
		if c.MaskLen(r.ddio) != ref.MaskLen(r.ddio) {
			t.Fatalf("slice %d: %d lines in the DDIO ways, reference %d", s, c.MaskLen(r.ddio), ref.MaskLen(r.ddio))
		}
		if !slices.Equal(c.Lines(), ref.Lines()) {
			t.Fatalf("slice %d: resident lines differ from the reference", s)
		}
	}
}

// llcSeedPrograms are long random programs, three for each profile.
func llcSeedPrograms() [][]byte {
	rng := rand.New(rand.NewSource(34))
	var progs [][]byte
	for i := 0; i < 6; i++ {
		prog := make([]byte, 6000)
		rng.Read(prog)
		prog[0] = byte(i)
		progs = append(progs, prog)
	}
	return progs
}

// fuzzLLCSets is the per-slice set count the fuzz target runs on: the one
// set pa() addresses in every slice, so New and the per-op comparison of
// a slice's lines stay cheap while every program hits, fills and evicts
// exactly as it does on the full-size slice.
const fuzzLLCSets = 1

// fuzzSeedLen is how much of each seed program the fuzz target starts
// from. The fuzzer minimizes every new interesting input by re-running
// shortened copies of it, at a cost that grows with its length; whole
// 6000-byte seeds spent the fuzzing time there.
const fuzzSeedLen = 1024

// FuzzSlicedLLCMatchesReference drives Insert, DMAInsert, Lookup,
// Invalidate, Contains, FlushAll and SetDDIOWays on the
// Haswell and the 18-slice Skylake LLC, plus Contains and FlushAll on
// single slices, and checks them against refLLC. It keeps the profiles'
// slice counts, ways, DDIO ways and hashes but shrinks every slice to
// fuzzLLCSets sets and starts from the head of each seed program;
// TestSlicedLLCSeedsMatchReferenceAtFullSize replays the whole programs
// on the real geometry.
func FuzzSlicedLLCMatchesReference(f *testing.F) {
	for _, prog := range llcSeedPrograms() {
		f.Add(prog[:fuzzSeedLen])
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLLCAgainstRef(t, data, fuzzLLCSets) })
}

// TestSlicedLLCSeedsMatchReferenceAtFullSize replays the fuzz target's seed
// programs on the profiles' real slice geometry.
func TestSlicedLLCSeedsMatchReferenceAtFullSize(t *testing.T) {
	for i, prog := range llcSeedPrograms() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkLLCAgainstRef(t, prog, 0) })
	}
}

// TestPrivateSlicesPast255SlotsMatchReference runs a random program on a
// 17-slice, 20-way LLC, whose 340 slots do not fit a shared line index, so
// New gives it private slices; it must still agree with refLLC.
func TestPrivateSlicesPast255SlotsMatchReference(t *testing.T) {
	p := arch.HaswellE52667v3()
	p.Slices = 17
	if p.Slices*p.LLCSlice.Ways <= cachesim.MaxGroupSlots {
		t.Fatalf("%d×%d slots fit a shared index", p.Slices, p.LLCSlice.Ways)
	}
	h, err := chash.ForProfileSlices(p.Slices)
	if err != nil {
		t.Fatal(err)
	}
	prog := make([]byte, 20000)
	rand.New(rand.NewSource(35)).Read(prog)
	runLLCAgainstRef(t, p, h, &llcOps{data: prog})
}
