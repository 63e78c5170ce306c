package machine

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestHeapStopsAtStacks: the default heap budget ends at isa.StackBase,
// so an allocation that would reach thread 0's stack faults with
// FaultOOM instead of handing out (and zeroing) stack words, and a size
// so large that the heap end would wrap around faults the same way.
func TestHeapStopsAtStacks(t *testing.T) {
	m := NewMemory(0)
	if _, f := m.Alloc(isa.StackBase-isa.HeapBase, 0); f != nil {
		t.Fatalf("allocating the whole heap: %v", f)
	}
	top := isa.StackTop(0) - 1
	if f := m.Store(top, 7, 0); f != nil {
		t.Fatal(f)
	}
	base, f := m.Alloc(isa.StackWords, 0)
	if v := m.peek(top); v != 7 {
		t.Fatalf("thread 0's stack word reads %d after Alloc returned 0x%x, %v; want 7", v, base, f)
	}
	if f == nil || f.Kind != FaultOOM {
		t.Fatalf("Alloc past the heap returned 0x%x, %v; want %s", base, f, FaultOOM)
	}

	m = NewMemory(0)
	if base, f := m.Alloc(^uint64(0), 0); f == nil || f.Kind != FaultOOM {
		t.Fatalf("Alloc(2^64-1) returned 0x%x, %v; want %s", base, f, FaultOOM)
	}
}

// heapBlock is one live heap allocation.
type heapBlock struct {
	Base, Size uint64
}

// peek, poke, poisonedAt and liveBlocks read and write a Memory without
// access checks, for the tests.
func (m *Memory) peek(addr uint64) uint64 {
	if p := m.page(addr>>pageShift, false); p != nil {
		return p.words[addr&pageMask]
	}
	return 0
}

func (m *Memory) poke(addr, v uint64) { m.write(addr, v) }

func (m *Memory) poisonedAt(addr uint64) bool {
	p := m.page(addr>>pageShift, false)
	return p != nil && p.poisoned(addr&pageMask)
}

// liveBlocks returns the live allocation table, sorted by base.
func (m *Memory) liveBlocks() []heapBlock {
	out := make([]heapBlock, 0, len(m.blocks))
	for base, n := range m.blocks {
		out = append(out, heapBlock{Base: base, Size: n})
	}
	slices.SortFunc(out, func(a, b heapBlock) int { return cmp.Compare(a.Base, b.Base) })
	return out
}

// memModel is machine.Memory by its definition: a map of words, the
// blocks handed out in address order with a map of the live ones, and
// the freed blocks, whose words are poisoned. The heap has the same
// bounds.
type memModel struct {
	words    map[uint64]uint64
	live     map[uint64]uint64 // live block base -> size
	handed   []heapBlock       // every block handed out, in address order
	freed    []heapBlock
	heapNext uint64
	heapEnd  uint64
}

func newMemModel(maxHeapWords uint64) *memModel {
	if maxHeapWords == 0 {
		maxHeapWords = isa.StackBase - isa.HeapBase
	}
	return &memModel{
		words:    map[uint64]uint64{},
		live:     map[uint64]uint64{},
		heapNext: isa.HeapBase,
		heapEnd:  isa.HeapBase + min(maxHeapWords, isa.StackBase-isa.HeapBase),
	}
}

func (m *memModel) poisoned(addr uint64) bool {
	for _, b := range m.freed {
		if addr >= b.Base && addr < b.Base+b.Size {
			return true
		}
	}
	return false
}

func (m *memModel) check(addr uint64, pc int) *Fault {
	if addr < isa.NullGuardTop {
		return &Fault{Kind: FaultNullAccess, PC: pc, Addr: addr}
	}
	if m.poisoned(addr) {
		return &Fault{Kind: FaultUseAfterFree, PC: pc, Addr: addr}
	}
	return nil
}

func (m *memModel) load(addr uint64, pc int) (uint64, *Fault) {
	if f := m.check(addr, pc); f != nil {
		return 0, f
	}
	return m.words[addr], nil
}

func (m *memModel) store(addr, v uint64, pc int) *Fault {
	if f := m.check(addr, pc); f != nil {
		return f
	}
	m.words[addr] = v
	return nil
}

func (m *memModel) alloc(n uint64, pc int) (uint64, *Fault) {
	if n == 0 {
		n = 1
	}
	if n > m.heapEnd-m.heapNext {
		return 0, &Fault{Kind: FaultOOM, PC: pc}
	}
	base := m.heapNext
	m.heapNext += n
	m.live[base] = n
	m.handed = append(m.handed, heapBlock{Base: base, Size: n})
	for a := range m.words {
		if a >= base && a < base+n {
			delete(m.words, a)
		}
	}
	return base, nil
}

func (m *memModel) free(base uint64, pc int) *Fault {
	n, ok := m.live[base]
	if !ok {
		return &Fault{Kind: FaultBadFree, PC: pc, Addr: base}
	}
	delete(m.live, base)
	m.freed = append(m.freed, heapBlock{Base: base, Size: n})
	return nil
}

func (m *memModel) blocks() []heapBlock {
	out := []heapBlock{}
	for _, b := range m.handed {
		if _, ok := m.live[b.Base]; ok {
			out = append(out, b)
		}
	}
	return out
}

// FuzzMemory drives machine.Memory and memModel through the same
// byte-driven sequence of Load, Store, Alloc, Free, peek, poke,
// poisonedAt, live-block lookups and liveBlocks calls and requires equal
// results and faults. The first byte picks the heap budget; each later operation
// takes an opcode byte and an operand byte. Addresses land on the null
// guard, around the blocks handed out so far (inside, at and past their
// ends), in the heap not yet handed out (so Alloc must zero what was
// written there), on page edges in the heap, the globals and the
// stacks, or anywhere; sizes run from one word to past a page and up to
// the whole remaining heap, or past it.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 9, 5, 1, 4, 9, 1, 1, 6, 0})
	f.Add([]byte{1, 2, 200, 2, 70, 3, 0, 0, 4, 0, 5, 1, 2, 7, 8, 3, 0})
	f.Add([]byte{2, 2, 255, 2, 254, 2, 253, 3, 1, 3, 1, 0, 130, 1, 131, 8, 9})
	f.Add([]byte{0, 2, 40, 1, 17, 0, 10, 4, 3, 5, 66, 6, 3, 7, 2, 3, 2, 0, 2, 8, 0})
	f.Add([]byte{0, 5, 76, 2, 113, 4, 76, 1, 2, 1, 10, 2, 12, 0, 2, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := []uint64{0, 3000, 64}[int(data[0])%3]
		mem, ref := NewMemory(budget), newMemModel(budget)
		block := func(k uint64) (heapBlock, bool) {
			if len(ref.handed) == 0 {
				return heapBlock{}, false
			}
			return ref.handed[k%uint64(len(ref.handed))], true
		}
		addr := func(b byte) uint64 {
			k := uint64(b >> 3)
			switch b & 7 {
			case 0:
				return k % isa.NullGuardTop
			case 1:
				if blk, ok := block(k); ok {
					return blk.Base + blk.Size - 2 + k%5
				}
			case 2:
				return ref.heapNext + k*k%1100
			case 3:
				if blk, ok := block(k); ok {
					return blk.Base + k%3
				}
			case 4:
				return isa.HeapBase + (k%4)*pageWords - 1 + k%3
			case 5:
				return isa.StackTop(int(k%3)) - 1 - k%2
			case 6:
				return 0x1000 + k
			}
			return uint64(b)<<8 | k
		}
		size := func(b byte) uint64 {
			k := uint64(b >> 2)
			switch b & 3 {
			case 0:
				return k % 8
			case 1:
				return k * 37
			case 2:
				return ref.heapEnd - ref.heapNext - 1 + k%3
			}
			return ^uint64(0) - k
		}
		for i, ops := 1, 0; i+1 < len(data) && ops < 200; i, ops = i+2, ops+1 {
			op, b := data[i], data[i+1]
			pc := i
			var got, want string
			switch op % 9 {
			case 0:
				a := addr(b)
				v, f := mem.Load(a, pc)
				rv, rf := ref.load(a, pc)
				got, want = fmt.Sprintf("Load(0x%x) = %d, %v", a, v, f), fmt.Sprintf("Load(0x%x) = %d, %v", a, rv, rf)
			case 1:
				a, v := addr(b), uint64(i)*0x9E3779B97F4A7C15
				got, want = fmt.Sprintf("Store(0x%x) = %v", a, mem.Store(a, v, pc)), fmt.Sprintf("Store(0x%x) = %v", a, ref.store(a, v, pc))
			case 2:
				n := size(b)
				base, f := mem.Alloc(n, pc)
				rbase, rf := ref.alloc(n, pc)
				got, want = fmt.Sprintf("Alloc(%d) = 0x%x, %v", n, base, f), fmt.Sprintf("Alloc(%d) = 0x%x, %v", n, rbase, rf)
			case 3:
				a := addr(b)
				if blk, ok := block(uint64(b >> 4)); ok && b&8 != 0 {
					a = blk.Base
				}
				got, want = fmt.Sprintf("Free(0x%x) = %v", a, mem.Free(a, pc)), fmt.Sprintf("Free(0x%x) = %v", a, ref.free(a, pc))
			case 4:
				a := addr(b)
				got, want = fmt.Sprintf("peek(0x%x) = %d", a, mem.peek(a)), fmt.Sprintf("peek(0x%x) = %d", a, ref.words[a])
			case 5:
				a, v := addr(b), uint64(i)+1
				mem.poke(a, v)
				ref.words[a] = v
			case 6:
				a := addr(b)
				got, want = fmt.Sprintf("poisonedAt(0x%x) = %v", a, mem.poisonedAt(a)), fmt.Sprintf("poisonedAt(0x%x) = %v", a, ref.poisoned(a))
			case 7:
				a := addr(b)
				if blk, ok := block(uint64(b >> 4)); ok && b&8 != 0 {
					a = blk.Base
				}
				n, ok := mem.blocks[a]
				rn, rok := ref.live[a]
				got, want = fmt.Sprintf("blocks[0x%x] = %d, %v", a, n, ok), fmt.Sprintf("blocks[0x%x] = %d, %v", a, rn, rok)
			case 8:
				if blocks, rblocks := mem.liveBlocks(), ref.blocks(); !reflect.DeepEqual(blocks, rblocks) {
					t.Fatalf("op %d: liveBlocks() = %v, model %v", ops, blocks, rblocks)
				}
			}
			if got != want {
				t.Fatalf("op %d: %s, model %s", ops, got, want)
			}
		}
	})
}
