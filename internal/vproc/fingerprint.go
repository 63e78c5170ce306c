// Live-in fingerprints: a canonical content hash over everything a
// dual-order replay can observe, so two instances with equal
// fingerprints are guaranteed equal Analyze results. The classifier's
// memoization cache (classify.Memo) keys on these.
//
// The fingerprint is deliberately relative: region digests exclude the
// absolute instruction indices, timestamps, and schedule position of a
// region, so a region that recurs with byte-identical live-in state
// later in the execution (the paper's Figure 3 recurrence) hashes
// equal and its instances hit the cache. Everything Analyze reads is
// covered — see docs/PERFORMANCE.md for the input-by-input soundness
// argument:
//
//   - program code (machine.Step executes Prog.Code; vproc reads no
//     other program state),
//   - per region: the live-in register file and PC (StartCpu), the
//     region length (the step budget and prefix lengths are relative),
//     the owning TID (SysGettid and Diff labels), the closing sync PC
//     (completion detection), the log's EndReason (the recorded-
//     boundary stop for budget-ended threads), the opening syscall's
//     recorded result if any, and the live-in value of every address
//     the region touches, from the execution's memory history (both
//     regions' are readable through liveInFor's peer fallback),
//   - per instance: the racing operations' offsets within their
//     regions, their recorded PCs, the racing address, and the heap
//     event prefix both regions replay against (poisoning and
//     allocation lookups run at the pair's minimum heap epoch).
//
// A fingerprint describes the oracle-free replay (Options.Oracle nil),
// the only one the classifier runs: it is execution-independent and
// safe to share across executions of the same program. A replay with
// the oracle also reads the whole execution's memory history, which no
// fingerprint encodes.
package vproc

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"repro/internal/replay"
)

// Fingerprint is the canonical identity of a race instance's dual-order
// replay inputs. Equal fingerprints imply equal Analyze results.
type Fingerprint [32]byte

// Fingerprinter computes instance fingerprints of the oracle-free
// replay for one execution, caching the per-execution work: the program
// hash (computed eagerly — every fingerprint needs it), the rolling
// heap-event prefix hashes, and one digest per region, each filled on
// first use. A Fingerprinter
// is not safe for concurrent use: classify.Run builds one per execution
// and fingerprints its instances on one goroutine.
type Fingerprinter struct {
	exec     *replay.Execution
	progHash [32]byte

	heapPrefix [][32]byte // heapPrefix[i] = digest of HeapEvents[:i]; nil until first use

	regions []*[32]byte // indexed by Region.Global; nil until that region's first use
}

// NewFingerprinter builds a fingerprinter for exec.
func NewFingerprinter(exec *replay.Execution) *Fingerprinter {
	b := make([]byte, 0, 16*len(exec.Prog.Code))
	for _, ins := range exec.Prog.Code {
		b = binary.LittleEndian.AppendUint64(b, uint64(ins.Op)|uint64(ins.Rd)<<8|uint64(ins.Rs1)<<16|uint64(ins.Rs2)<<24)
		b = binary.LittleEndian.AppendUint64(b, uint64(ins.Imm))
	}
	return &Fingerprinter{
		exec:     exec,
		progHash: sha256.Sum256(b),
		regions:  make([]*[32]byte, len(exec.Regions)),
	}
}

// The digests below encode into append-grown byte buffers and hash with
// sha256.Sum256 rather than a streaming hash.Hash: the miss path of the
// memo runs Instance once per race instance, and a heap-allocated sha256
// state per call made fingerprinting cost as much as the replays it was
// saving. Instance's buffer has a fixed maximum size and stays on the
// stack; the variable-size region encoding is amortized by the per-region
// digest cache.

// heapPrefixAt returns the digest of exec.HeapEvents[:epoch], building
// the rolling prefix table on first use.
func (f *Fingerprinter) heapPrefixAt(epoch int) [32]byte {
	if f.heapPrefix == nil {
		events := f.exec.HeapEvents
		f.heapPrefix = make([][32]byte, len(events)+1)
		var buf [56]byte // prev digest + kind + base + size
		for i, ev := range events {
			b := append(buf[:0], f.heapPrefix[i][:]...)
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Kind))
			b = binary.LittleEndian.AppendUint64(b, ev.Base)
			b = binary.LittleEndian.AppendUint64(b, ev.Size)
			f.heapPrefix[i+1] = sha256.Sum256(b)
		}
	}
	if epoch < 0 {
		epoch = 0
	}
	if epoch >= len(f.heapPrefix) {
		epoch = len(f.heapPrefix) - 1
	}
	return f.heapPrefix[epoch]
}

// regionDigest returns the cached digest of everything a dual-order
// replay can observe about one region, computing it on first use.
func (f *Fingerprinter) regionDigest(r *replay.Region) [32]byte {
	if p := f.regions[r.Global]; p != nil {
		return *p
	}
	// Live-in memory, in canonical (sorted-address) order: the distinct
	// addresses the region touches, except those it only writes.
	addrs := make([]uint64, len(r.Accesses))
	for i, a := range r.Accesses {
		addrs[i] = a.Addr
	}
	slices.Sort(addrs)
	mem := f.exec.Memory()
	var live []uint64 // address, value pairs
	for _, a := range slices.Compact(addrs) {
		if v, ok := mem.LiveIn(a, r.Global); ok {
			live = append(live, a, v)
		}
	}

	le := binary.LittleEndian
	b := make([]byte, 0, 8*len(r.StartCpu.Regs)+8*8+8*len(live))
	// Live-in architectural state and the region's relative extent.
	for _, reg := range r.StartCpu.Regs {
		b = le.AppendUint64(b, reg)
	}
	b = le.AppendUint64(b, uint64(int64(r.StartCpu.PC)))
	b = le.AppendUint64(b, r.EndIdx-r.StartIdx)
	b = le.AppendUint64(b, uint64(int64(r.TID)))

	// Completion detection: the closing sync PC (the next region's
	// opening PC), and the recorded-boundary fallback inputs for regions
	// with no closing sync.
	closePC := -1
	if th := f.exec.Thread(r.TID); th != nil && r.Ordinal+1 < len(th.Regions) {
		closePC = th.Regions[r.Ordinal+1].StartCpu.PC
	}
	b = le.AppendUint64(b, uint64(int64(closePC)))
	if log := f.exec.Log.Thread(r.TID); log != nil {
		b = le.AppendUint64(b, uint64(log.EndReason))
		// The opening syscall's recorded result, if the region opens with
		// an injectable syscall (rand/time/spawn/join).
		found := uint64(0)
		res := uint64(0)
		for _, rec := range log.SysRets {
			if rec.Idx == r.StartIdx {
				found, res = 1, rec.Res
				break
			}
		}
		b = le.AppendUint64(b, found)
		b = le.AppendUint64(b, res)
	}

	// Live-in memory: the count, then each address and value.
	b = le.AppendUint64(b, uint64(len(live)/2))
	for _, x := range live {
		b = le.AppendUint64(b, x)
	}

	d := sha256.Sum256(b)
	f.regions[r.Global] = &d
	return d
}

// Instance fingerprints one race instance's oracle-free replay. The
// pair is canonicalized exactly as Analyze canonicalizes it, so the
// fingerprint is a property of the instance, not of how the caller
// ordered the regions.
func (f *Fingerprinter) Instance(pair RacePair) Fingerprint {
	if pair.RegionB.Global < pair.RegionA.Global {
		pair.RegionA, pair.RegionB = pair.RegionB, pair.RegionA
		pair.IdxA, pair.IdxB = pair.IdxB, pair.IdxA
		pair.PCA, pair.PCB = pair.PCB, pair.PCA
	}
	epoch := pair.RegionA.HeapEpoch
	if pair.RegionB.HeapEpoch < epoch {
		epoch = pair.RegionB.HeapEpoch
	}
	le := binary.LittleEndian
	var arr [176]byte // 4 digests + 6 u64 fields; stays on the stack
	b := append(arr[:0], f.progHash[:]...)
	da := f.regionDigest(pair.RegionA)
	b = append(b, da[:]...)
	db := f.regionDigest(pair.RegionB)
	b = append(b, db[:]...)
	b = le.AppendUint64(b, pair.IdxA-pair.RegionA.StartIdx)
	b = le.AppendUint64(b, pair.IdxB-pair.RegionB.StartIdx)
	b = le.AppendUint64(b, uint64(int64(pair.PCA)))
	b = le.AppendUint64(b, uint64(int64(pair.PCB)))
	b = le.AppendUint64(b, pair.Addr)
	hp := f.heapPrefixAt(epoch)
	b = append(b, hp[:]...)
	// A zero word: fingerprints stay equal to those in audits already
	// written (and testdata/fingerprints.txt).
	b = le.AppendUint64(b, 0)
	return Fingerprint(sha256.Sum256(b))
}
