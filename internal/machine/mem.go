package machine

import "repro/internal/isa"

const (
	pageShift = 10
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// memPage is one 1,024-word page of memory and its poison bits, one per
// word. The words live in their own 8 KiB array: with the bits beside
// them the allocation would fall into the next size class.
type memPage struct {
	words  *[pageWords]uint64
	poison [pageWords / 64]uint64
}

func (p *memPage) poisoned(off uint64) bool {
	return p.poison[off>>6]&(1<<(off&63)) != 0
}

// Memory is the RVM's word-granular flat address space, backed by pages
// allocated on demand (unmapped words read as zero) behind a one-page
// cache. It also owns the heap bump allocator and the use-after-free
// poison bits: freed blocks are never reused, so dangling accesses fault
// deterministically.
type Memory struct {
	pages    map[uint64]*memPage
	lastPN   uint64 // page number of last; ^0 matches no address
	last     *memPage
	heapNext uint64
	heapEnd  uint64            // first word past the heap
	blocks   map[uint64]uint64 // live allocation base -> size in words
}

// NewMemory returns an empty memory whose heap can grow to maxHeapWords,
// and never into the thread stacks at isa.StackBase (0 means up to
// them: the machine's heap).
func NewMemory(maxHeapWords uint64) *Memory {
	if maxHeapWords == 0 {
		maxHeapWords = isa.StackBase - isa.HeapBase
	}
	return &Memory{
		pages:    make(map[uint64]*memPage),
		lastPN:   ^uint64(0),
		heapNext: isa.HeapBase,
		heapEnd:  isa.HeapBase + min(maxHeapWords, isa.StackBase-isa.HeapBase),
		blocks:   make(map[uint64]uint64),
	}
}

// LoadInit copies a program's initialized data segment into memory.
func (m *Memory) LoadInit(data map[uint64]uint64) {
	for addr, v := range data {
		m.write(addr, v)
	}
}

// page returns page number pn, or nil when it is unmapped and create is
// false.
func (m *Memory) page(pn uint64, create bool) *memPage {
	if pn == m.lastPN {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = &memPage{words: new([pageWords]uint64)}
		m.pages[pn] = p
	}
	m.lastPN, m.last = pn, p
	return p
}

func (m *Memory) write(addr uint64, v uint64) {
	m.page(addr>>pageShift, true).words[addr&pageMask] = v
}

// Load reads the word at addr, faulting on null-guard or poisoned
// addresses.
func (m *Memory) Load(addr uint64, pc int) (uint64, *Fault) {
	if addr < isa.NullGuardTop {
		return 0, &Fault{Kind: FaultNullAccess, PC: pc, Addr: addr}
	}
	p := m.page(addr>>pageShift, false)
	if p == nil {
		return 0, nil
	}
	if p.poisoned(addr & pageMask) {
		return 0, &Fault{Kind: FaultUseAfterFree, PC: pc, Addr: addr}
	}
	return p.words[addr&pageMask], nil
}

// Store writes the word at addr with the same checks as Load.
func (m *Memory) Store(addr, v uint64, pc int) *Fault {
	if addr < isa.NullGuardTop {
		return &Fault{Kind: FaultNullAccess, PC: pc, Addr: addr}
	}
	p := m.page(addr>>pageShift, true)
	if p.poisoned(addr & pageMask) {
		return &Fault{Kind: FaultUseAfterFree, PC: pc, Addr: addr}
	}
	p.words[addr&pageMask] = v
	return nil
}

// Alloc carves a fresh zeroed block of n words from the heap and returns
// its base address. Blocks are never recycled, so every allocation has a
// unique address for the lifetime of the run.
func (m *Memory) Alloc(n uint64, pc int) (uint64, *Fault) {
	if n == 0 {
		n = 1
	}
	if n > m.heapEnd-m.heapNext {
		return 0, &Fault{Kind: FaultOOM, PC: pc}
	}
	base := m.heapNext
	m.heapNext += n
	m.blocks[base] = n
	// Only a page something was written to can hold a nonzero word.
	m.eachPage(base, n, false, func(p *memPage, lo, hi uint64) { clear(p.words[lo:hi]) })
	return base, nil
}

// Free releases the block at base, poisoning every word so later accesses
// fault as use-after-free. Freeing a non-block address (including a second
// free of the same block) faults.
func (m *Memory) Free(base uint64, pc int) *Fault {
	n, ok := m.blocks[base]
	if !ok {
		return &Fault{Kind: FaultBadFree, PC: pc, Addr: base}
	}
	delete(m.blocks, base)
	m.eachPage(base, n, true, func(p *memPage, lo, hi uint64) {
		for off := lo; off < hi; off++ {
			p.poison[off>>6] |= 1 << (off & 63)
		}
	})
	return nil
}

// eachPage calls fn with each page the n words from base span and the
// offsets [lo, hi) of those words on it, skipping unmapped pages unless
// create is set.
func (m *Memory) eachPage(base, n uint64, create bool, fn func(p *memPage, lo, hi uint64)) {
	for addr, end := base, base+n; addr < end; {
		lo := addr & pageMask
		hi := min(pageWords, lo+(end-addr))
		if p := m.page(addr>>pageShift, create); p != nil {
			fn(p, lo, hi)
		}
		addr += hi - lo
	}
}
