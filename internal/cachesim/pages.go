package cachesim

// pages is the sparse page directory under LineSet and lineIndex: pages of
// one fixed size, allocated on first use, keyed by page number. Page
// numbers below pagesDenseLimit — every line of simulated DRAM, for both
// page sizes — index a flat slice; higher ones (adversarial keys in
// tests) fall back to a map fronted by a one-entry page cache.
type pages[P any] struct {
	dense    []*P
	far      map[uint64]*P
	lastIdx  uint64
	lastPage *P
}

const pagesDenseLimit = 1 << 19

// get returns page p, or nil when it was never allocated.
func (d *pages[P]) get(p uint64) *P {
	if p < pagesDenseLimit {
		if p < uint64(len(d.dense)) {
			return d.dense[p]
		}
		return nil
	}
	if p == d.lastIdx && d.lastPage != nil {
		return d.lastPage
	}
	pg := d.far[p]
	if pg != nil {
		d.lastIdx, d.lastPage = p, pg
	}
	return pg
}

// ensure returns page p, allocating it if needed.
func (d *pages[P]) ensure(p uint64) *P {
	if pg := d.get(p); pg != nil {
		return pg
	}
	pg := new(P)
	if p < pagesDenseLimit {
		for uint64(len(d.dense)) <= p {
			d.dense = append(d.dense, nil)
		}
		d.dense[p] = pg
	} else {
		if d.far == nil {
			d.far = make(map[uint64]*P)
		}
		d.far[p] = pg
	}
	d.lastIdx, d.lastPage = p, pg
	return pg
}
