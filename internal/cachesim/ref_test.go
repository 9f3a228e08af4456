package cachesim

import (
	"fmt"
	"reflect"
	"testing"
)

// refCache is the reference model Cache is checked against: a map from
// line to way for presence, and one slice of ways per set, each way a
// plain struct. Every rule is written out the long way — no bitmaps, no
// index — so that it can be read against the package documentation.
type refCache struct {
	sets, ways int
	where      map[uint64]int // resident line → its way; the set is line % sets
	rows       [][]refWay
	clock      uint64
	policy     Policy
	bipCount   uint64
}

type refWay struct {
	line         uint64
	valid, dirty bool
	age          uint64 // larger = more recently used
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: sets, ways: ways, where: map[uint64]int{}}
	for i := 0; i < sets; i++ {
		r.rows = append(r.rows, make([]refWay, ways))
	}
	return r
}

func (r *refCache) row(line uint64) []refWay { return r.rows[line%uint64(r.sets)] }

// allowed reports whether mask permits way w, after clipping the mask to
// the geometry and treating an empty clipped mask as every way.
func (r *refCache) allowed(mask WayMask, w int) bool {
	some := false
	for i := 0; i < r.ways; i++ {
		if mask&(1<<uint(i)) != 0 {
			some = true
		}
	}
	return !some || mask&(1<<uint(w)) != 0
}

func (r *refCache) Lookup(line uint64, write bool) bool {
	w, ok := r.where[line]
	if !ok {
		return false
	}
	r.clock++
	way := &r.row(line)[w]
	way.age = r.clock
	way.dirty = way.dirty || write
	return true
}

func (r *refCache) Contains(line uint64) bool {
	_, ok := r.where[line]
	return ok
}

func (r *refCache) Insert(line uint64, dirty bool, mask WayMask) Victim {
	r.clock++
	row := r.row(line)
	if w, ok := r.where[line]; ok {
		row[w].age = r.clock
		row[w].dirty = row[w].dirty || dirty
		return Victim{}
	}
	victim := -1
	for w := range row { // the lowest allowed empty way
		if r.allowed(mask, w) && !row[w].valid {
			victim = w
			break
		}
	}
	var v Victim
	if victim < 0 { // the least recently used allowed way, lowest on ties
		for w := range row {
			if r.allowed(mask, w) && (victim < 0 || row[w].age < row[victim].age) {
				victim = w
			}
		}
		old := row[victim]
		v = Victim{Line: old.line, Dirty: old.dirty, Evicted: true}
		delete(r.where, old.line)
	}
	age := r.clock
	switch r.policy {
	case LIP:
		age = 0
	case BIP:
		r.bipCount++
		if r.bipCount%32 != 0 {
			age = 0
		}
	}
	row[victim] = refWay{line: line, valid: true, dirty: dirty, age: age}
	r.where[line] = victim
	return v
}

func (r *refCache) Invalidate(line uint64) (present, dirty bool) {
	w, ok := r.where[line]
	if !ok {
		return false, false
	}
	way := &r.row(line)[w]
	dirty = way.dirty
	*way = refWay{}
	delete(r.where, line)
	return true, dirty
}

func (r *refCache) FlushAll() int {
	wb := 0
	for _, row := range r.rows {
		for w := range row {
			if row[w].valid && row[w].dirty {
				wb++
			}
			row[w] = refWay{}
		}
	}
	r.where = map[uint64]int{}
	return wb
}

func (r *refCache) SetPolicy(p Policy) error {
	if p != LRU && p != BIP && p != LIP {
		return fmt.Errorf("unknown policy %d", int(p))
	}
	r.policy = p
	return nil
}

func (r *refCache) Len() int { return len(r.where) }

// MaskLen counts resident lines in the ways mask names; AllWays and the
// empty mask count every line.
func (r *refCache) MaskLen(mask WayMask) int {
	if mask == AllWays || mask == 0 {
		return r.Len()
	}
	n := 0
	for _, row := range r.rows {
		for w := range row {
			if row[w].valid && mask&(1<<uint(w)) != 0 {
				n++
			}
		}
	}
	return n
}

// Lines lists resident lines set by set, lowest way first.
func (r *refCache) Lines() []uint64 {
	out := []uint64{}
	for _, row := range r.rows {
		for _, way := range row {
			if way.valid {
				out = append(out, way.line)
			}
		}
	}
	return out
}

// opReader decodes a fuzz input into cache operations. Reads past the
// end yield zeros, so every input is a valid (if short) program.
type opReader struct {
	data []byte
	pos  int
}

func (o *opReader) more() bool { return o.pos < len(o.data) }

func (o *opReader) byte() byte {
	if o.pos >= len(o.data) {
		return 0
	}
	b := o.data[o.pos]
	o.pos++
	return b
}

// fuzzLineBases spread the decoded lines over the low dense range, a line
// 2^20 up, the 2^31 boundary and the very top of the line space.
var fuzzLineBases = [4]uint64{0, 1 << 20, 1<<31 - 32, ^uint64(0) - 63}

// line decodes one byte into a line: 64 consecutive lines per base, so a
// few sets of a small cache see heavy conflict.
func (o *opReader) line() uint64 {
	b := o.byte()
	return fuzzLineBases[b>>6] + uint64(b&63)
}

// mask decodes the empty mask, a one-way mask, all ways, or a way range.
func (o *opReader) mask() WayMask {
	switch b := o.byte(); b % 4 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return AllWays
	default:
		lo := int(o.byte() % 64)
		return MaskOfWayRange(lo, lo+1+int(b>>2)%20)
	}
}

// fuzzWays are the associativities the fuzz geometry picks from: the
// edges, both arch profiles' LLC slices (20 and 11) and private caches.
var fuzzWays = [8]int{1, 2, 3, 8, 11, 16, 20, 64}

// checkAgainstRef runs the program encoded in data on a Cache and on the
// reference, failing at the first operation where they disagree.
func checkAgainstRef(t *testing.T, data []byte) {
	o := &opReader{data: data}
	g := o.byte()
	sets, ways := 1<<(g&3), fuzzWays[(g>>2)&7]
	c := MustNew("fuzz", sets, ways)
	r := newRefCache(sets, ways)
	for step := 0; o.more(); step++ {
		op := o.byte()
		var got, want any
		switch op % 8 {
		case 0:
			l, w := o.line(), op&8 != 0
			got, want = c.Lookup(l, w), r.Lookup(l, w)
		case 1:
			l, d, m := o.line(), op&8 != 0, o.mask()
			got, want = c.Insert(l, d, m), r.Insert(l, d, m)
		case 2: // a demand access: probe, and fill on a miss
			l, d, m := o.line(), op&8 != 0, o.mask()
			h1, h2 := c.Lookup(l, d), r.Lookup(l, d)
			var v1, v2 Victim
			if !h1 {
				v1 = c.Insert(l, d, m)
			}
			if !h2 {
				v2 = r.Insert(l, d, m)
			}
			got, want = [2]any{h1, v1}, [2]any{h2, v2}
		case 3:
			l := o.line()
			p1, d1 := c.Invalidate(l)
			p2, d2 := r.Invalidate(l)
			got, want = [2]bool{p1, d1}, [2]bool{p2, d2}
		case 4:
			l := o.line()
			got, want = c.Contains(l), r.Contains(l)
		case 5:
			if op&0x30 == 0 { // rare: a flush empties everything
				got, want = c.FlushAll(), r.FlushAll()
			}
		case 6:
			p := Policy(o.byte() % 4) // 3 is not a policy and must be refused
			got, want = c.SetPolicy(p) == nil, r.SetPolicy(p) == nil
		case 7:
			m := o.mask()
			got, want = c.MaskLen(m), r.MaskLen(m)
		}
		if got != want {
			t.Fatalf("step %d (op %d, %d×%d): cache %+v, reference %+v", step, op%8, sets, ways, got, want)
		}
		if cl, rl := c.Lines(), r.Lines(); !reflect.DeepEqual(cl, rl) {
			t.Fatalf("step %d (op %d): lines %v, reference %v", step, op%8, cl, rl)
		}
	}
}

// FuzzCacheMatchesReference checks Cache against refCache operation by
// operation: hit or miss, victim, demand accesses (a probe, then a fill on
// a miss), invalidate and flush results, policy changes, per-mask
// occupancy and the resident lines. Every event count the cache could keep
// (hits, misses, insertions, evictions, write-backs) follows from those.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x1d, 1, 5, 0, 1, 1, 6, 2, 0, 5, 9, 6, 3, 1, 7, 1, 6, 1})
	f.Add([]byte{0x0a, 1, 0x40, 2, 1, 0x41, 2, 0, 0x40, 6, 2, 1, 0x42, 0, 3, 0x41})
	f.Fuzz(checkAgainstRef)
}
