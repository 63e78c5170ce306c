package replay

import (
	"slices"
	"sort"
)

// VersionedMemory is an execution's one per-address index and its memory
// history: every replayed access, grouped by address and, per address, in
// schedule order. Execution.Memory builds it on first use. It answers the
// paper's two per-address questions:
//
//   - Which accesses can race (§3)? Screen and Refs are all the offline
//     engines' conflict search (hb.Search) reads.
//   - What did an address hold? Before is the image at any point of the
//     schedule: time travel, the final image, and the §4.2.1 oracle of
//     vproc.Options.Oracle (ablation A3). LiveIn is what a
//     region saw on entry, the state the virtual processor starts each
//     race instance from (§4.2). Both binary-search by region.
//
// An entry names its access (Ref) instead of copying it.
type VersionedMemory struct {
	regions []*Region
	slots   *slotTable    // address -> index into hist, assigned by Run
	hist    []addrHistory // by slot
	refs    []Ref         // every access, one contiguous range per address
	shared  []uint64      // Screen's addresses, ascending
	data    int           // addresses accessed non-atomically
}

// Ref names one replayed access: Accesses[Index] of the region whose
// schedule index (Region.Global) is Region.
type Ref struct{ Region, Index int32 }

// addrHistory is one address's range of refs and the screen's summary of
// it, taken over non-atomic accesses only: atomics are synchronization,
// not data.
type addrHistory struct {
	addr    uint64
	lo, hi  int32 // range into refs
	tid     int32 // first thread to access the address non-atomically, or -1
	shared  bool  // a second thread accessed it non-atomically
	written bool  // a non-atomic access wrote it
}

// buildVersionedMemory indexes every access of regions, which must be in
// schedule order with regions[g].Global == g, through slots, which
// numbers the addresses in order of first access and which Run recorded
// in each access: the index looks up no address per access.
func buildVersionedMemory(regions []*Region, slots *slotTable) *VersionedMemory {
	n := 0
	for _, reg := range regions {
		n += len(reg.Accesses)
	}
	vm := &VersionedMemory{regions: regions, slots: slots, hist: make([]addrHistory, slots.n), refs: make([]Ref, n)}
	// Pass 1: count each address's accesses (in hi for now) and run the
	// screen. An address's first access finds hi still 0 and names it.
	for _, reg := range regions {
		tid := int32(reg.TID)
		for i := range reg.Accesses {
			acc := &reg.Accesses[i]
			h := &vm.hist[acc.slot]
			if h.hi == 0 {
				h.addr, h.tid = acc.Addr, -1
			}
			h.hi++
			if acc.Atomic {
				continue
			}
			if h.tid < 0 {
				h.tid = tid
				vm.data++
			} else if h.tid != tid {
				h.shared = true
			}
			h.written = h.written || acc.IsWrite
		}
	}
	// Give each address its range; hi becomes the range's fill cursor,
	// and pass 2 leaves it at the range's end.
	next := int32(0)
	for i := range vm.hist {
		h := &vm.hist[i]
		count := h.hi
		h.lo, h.hi = next, next
		next += count
		if h.shared && h.written {
			vm.shared = append(vm.shared, h.addr)
		}
	}
	slices.Sort(vm.shared)
	for _, reg := range regions {
		for i := range reg.Accesses {
			h := &vm.hist[reg.Accesses[i].slot]
			vm.refs[h.hi] = Ref{Region: int32(reg.Global), Index: int32(i)}
			h.hi++
		}
	}
	return vm
}

// Screen is the conflict search's address screen, taken over non-atomic
// accesses only. data counts the addresses accessed non-atomically, and
// shared lists in ascending order those of them that two or more threads
// access and at least one access writes: the only addresses where a data
// race can occur.
func (vm *VersionedMemory) Screen() (shared []uint64, data int) { return vm.shared, vm.data }

// Refs returns addr's accesses in schedule order, atomic ones included
// (nil when no region touched addr). A region's accesses are contiguous,
// in execution order. The caller must not modify the slice.
func (vm *VersionedMemory) Refs(addr uint64) []Ref {
	s, ok := vm.slots.lookup(addr)
	if !ok {
		return nil
	}
	h := &vm.hist[s]
	return vm.refs[h.lo:h.hi]
}

// search returns addr's accesses and the index of the first one in a
// region with schedule index >= global.
func (vm *VersionedMemory) search(addr uint64, global int) ([]Ref, int) {
	refs := vm.Refs(addr)
	return refs, sort.Search(len(refs), func(i int) bool { return int(refs[i].Region) >= global })
}

func (vm *VersionedMemory) access(r Ref) *Access { return &vm.regions[r.Region].Accesses[r.Index] }

// Before returns the value addr held before region global ran: the last
// value the latest region with schedule index < global gave it. The
// second result is false when no earlier region ever touched the address.
func (vm *VersionedMemory) Before(addr uint64, global int) (uint64, bool) {
	refs, i := vm.search(addr, global)
	if i == 0 {
		return 0, false
	}
	return vm.access(refs[i-1]).Val, true
}

// LiveIn returns the value addr held when region global started, for an
// address that region touches: the value the latest earlier region left
// it with, or else the region's own first read. The second result is
// false when the region does not touch addr, or when it is the first
// region to touch addr and only writes it: that value is unknown.
func (vm *VersionedMemory) LiveIn(addr uint64, global int) (uint64, bool) {
	refs, i := vm.search(addr, global)
	switch {
	case i == len(refs) || int(refs[i].Region) != global:
		return 0, false
	case i > 0:
		return vm.access(refs[i-1]).Val, true
	}
	for _, r := range refs {
		if int(r.Region) != global {
			break
		}
		if acc := vm.access(r); !acc.IsWrite {
			return acc.Val, true
		}
	}
	return 0, false
}
