package replay

import "math/bits"

const (
	pageShift = 6
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// slotTable numbers the addresses a replay accesses, densely, in the
// order of their first access in the schedule: the memory index
// (VersionedMemory) keeps one history per slot. The slots live in pages
// of 64 words, and each thread view's page points at the slot page for
// the same words, so assigning or reading an access's slot hashes
// nothing.
type slotTable struct {
	pages map[uint64]*slotPage
	n     int32 // slots assigned so far
}

// slotPage holds slot+1 for each word of one page, 0 for a word no
// access has touched.
type slotPage [pageWords]int32

// page returns page number pn, creating it if needed.
func (t *slotTable) page(pn uint64) *slotPage {
	p := t.pages[pn]
	if p == nil {
		p = new(slotPage)
		t.pages[pn] = p
	}
	return p
}

// lookup returns addr's slot, or false when no access touched addr.
func (t *slotTable) lookup(addr uint64) (int32, bool) {
	p := t.pages[addr>>pageShift]
	if p == nil || p[addr&pageMask] == 0 {
		return 0, false
	}
	return p[addr&pageMask] - 1, true
}

// view is the memory one thread can reconstruct from its own log: pages
// of 64 words, each with a mask of the words the thread knows, behind a
// one-page cache. It grows with the pages the thread touches, and the
// page map is made only when the thread touches a second page, which
// most threads of a small program never do.
type view struct {
	pages  map[uint64]*viewPage
	lastPN uint64 // page number of last; ^0 matches no address
	last   *viewPage
	slots  *slotTable // the execution's slots, nil when accesses are skipped
}

type viewPage struct {
	known uint64 // bit i: the thread knows vals[i]
	vals  [pageWords]uint64
	slots *slotPage // the execution's slots for the same words, nil when accesses are skipped
}

func newView(slots *slotTable) view { return view{lastPN: ^uint64(0), slots: slots} }

// page returns the page holding addr, creating it if needed.
func (v *view) page(addr uint64) *viewPage {
	pn := addr >> pageShift
	if pn == v.lastPN {
		return v.last
	}
	if v.last != nil && v.pages == nil {
		v.pages = map[uint64]*viewPage{v.lastPN: v.last}
	}
	p := v.pages[pn]
	if p == nil {
		p = new(viewPage)
		if v.slots != nil {
			p.slots = v.slots.page(pn)
		}
		if v.pages != nil {
			v.pages[pn] = p
		}
	}
	v.lastPN, v.last = pn, p
	return p
}

// set records that the thread knows val at addr, and returns addr's page.
func (v *view) set(addr, val uint64) *viewPage {
	p, off := v.page(addr), addr&pageMask
	p.known |= 1 << off
	p.vals[off] = val
	return p
}

// toMap returns every word the thread knows.
func (v *view) toMap() map[uint64]uint64 {
	m := make(map[uint64]uint64)
	add := func(pn uint64, p *viewPage) {
		for known := p.known; known != 0; known &= known - 1 {
			off := uint64(bits.TrailingZeros64(known))
			m[pn<<pageShift|off] = p.vals[off]
		}
	}
	if v.pages == nil && v.last != nil {
		add(v.lastPN, v.last)
	}
	for pn, p := range v.pages {
		add(pn, p)
	}
	return m
}
