package cachesim

// lineIndex is the index the members of a cache group share: a paged
// byte array mapping a line to its slot, member·ways + way + 1, or 0 when
// no member holds it — derived state kept exactly in step with the
// members' set arrays. A page covers 2^12 lines (4 KiB), so one packet's
// consecutive lines share a page whichever slice holds them.
const indexPageShift = 12

type indexPage [1 << indexPageShift]uint8

type lineIndex struct{ pages pages[indexPage] }

// get returns the slot holding line, or 0 when the line is absent.
func (m *lineIndex) get(line uint64) uint8 {
	if pg := m.pages.get(line >> indexPageShift); pg != nil {
		return pg[line&(1<<indexPageShift-1)]
	}
	return 0
}

// set records slot for line; slot 0 removes it.
func (m *lineIndex) set(line uint64, slot uint8) {
	m.pages.ensure(line >> indexPageShift)[line&(1<<indexPageShift-1)] = slot
}
