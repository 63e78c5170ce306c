package replay

import "sort"

// VersionedMemory is an execution's memory history: for every address,
// the value each region left it with, in schedule order. It is the only
// memory an Execution carries (Execution.Memory builds it on first use,
// in one pass over the replayed accesses), and every position query is a
// binary search:
//
//   - Before is the memory image at any point of the schedule: time
//     travel, the final image, and the §4.2.1 extension the classifier
//     consults under its UseOracle option (ablation A3), which lets an
//     alternative order that reads outside the two regions' live-ins
//     continue instead of failing.
//   - LiveIn is what a region saw on entry at an address it touches, the
//     state the virtual processor starts each race instance from (§4.2).
type VersionedMemory struct {
	slot map[uint64]int32 // address → index into hist
	hist []addrHistory
}

// addrHistory is one address's history.
type addrHistory struct {
	versions []version // one per region that touched the address, ascending
	// The first region to touch the address: its first read of it, if it
	// reads it at all (possibly after writing it).
	firstRead    uint64
	hasFirstRead bool
}

type version struct {
	global int // region (schedule index) that observed/wrote the value
	val    uint64
}

// buildVersionedMemory indexes every access of regions, which must be in
// schedule order.
func buildVersionedMemory(regions []*Region) *VersionedMemory {
	vm := &VersionedMemory{slot: make(map[uint64]int32)}
	for _, reg := range regions {
		for _, acc := range reg.Accesses {
			s, ok := vm.slot[acc.Addr]
			if !ok {
				s = int32(len(vm.hist))
				vm.slot[acc.Addr] = s
				vm.hist = append(vm.hist, addrHistory{})
			}
			h := &vm.hist[s]
			// One version per (addr, region): keep the last value the
			// region gave the address.
			if n := len(h.versions); n > 0 && h.versions[n-1].global == reg.Global {
				h.versions[n-1].val = acc.Val
			} else {
				h.versions = append(h.versions, version{global: reg.Global, val: acc.Val})
			}
			if !acc.IsWrite && !h.hasFirstRead && len(h.versions) == 1 {
				h.firstRead, h.hasFirstRead = acc.Val, true
			}
		}
	}
	return vm
}

// search returns addr's history (nil when no region touched it) and the
// index of its first version with schedule index >= global.
func (vm *VersionedMemory) search(addr uint64, global int) (*addrHistory, int) {
	s, ok := vm.slot[addr]
	if !ok {
		return nil, 0
	}
	h := &vm.hist[s]
	return h, sort.Search(len(h.versions), func(i int) bool { return h.versions[i].global >= global })
}

// Before returns the value addr held before region global ran: the value
// recorded by the latest region with schedule index < global. The second
// result is false when no earlier region ever touched the address.
func (vm *VersionedMemory) Before(addr uint64, global int) (uint64, bool) {
	h, i := vm.search(addr, global)
	if i == 0 {
		return 0, false
	}
	return h.versions[i-1].val, true
}

// LiveIn returns the value addr held when region global started, for an
// address that region touches: the value the latest earlier region left
// it with, or else the region's own first read. The second result is
// false when the region does not touch addr, or when it is the first
// region to touch addr and only writes it: that value is unknown.
func (vm *VersionedMemory) LiveIn(addr uint64, global int) (uint64, bool) {
	h, i := vm.search(addr, global)
	switch {
	case h == nil || i == len(h.versions) || h.versions[i].global != global:
		return 0, false
	case i > 0:
		return h.versions[i-1].val, true
	}
	return h.firstRead, h.hasFirstRead
}
