package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

// allocBudget is the per-trial allocation ceiling: a decode of an
// n-byte input may allocate at most allocSlackBytes plus
// allocFactor * n before the runner flags it as unbounded. The factor
// covers the decoder's legitimate expansion (varint streams inflate
// into 24-byte records, plus parser scratch); the slack absorbs fixed
// costs on tiny inputs.
const (
	allocFactor     = 64
	allocSlackBytes = 1 << 20
)

// Trial is the outcome of decoding one corrupted log.
type Trial struct {
	Index      int
	Kind       Kind
	InputBytes int
	AllocBytes uint64
	Err        error // nil when the corrupted log still decoded to a valid log
	Salvaged   int   // thread segments quarantined by a v2 salvage decode
	Panicked   bool
	PanicValue string
	Unbounded  bool
}

// Report aggregates a chaos run against the decode contract: never
// panic, never allocate unbounded, always a typed error or a valid log.
type Report struct {
	Seed      int64
	Trials    []Trial
	Panics    int
	Unbounded int
	Untyped   int // errors that are neither *DecodeError nor *ValidateError
	Accepted  int // corruptions the decoder still accepted as valid logs
	Rejected  int
	Salvaged  int // trials a v2 salvage decode accepted minus corrupt threads
	MaxAlloc  uint64
}

// Violations counts contract breaches: panics, unbounded allocations,
// and untyped errors.
func (r *Report) Violations() int { return r.Panics + r.Unbounded + r.Untyped }

// ByKind tallies (trials, rejected) per corruption kind.
func (r *Report) ByKind() map[Kind][2]int {
	out := make(map[Kind][2]int)
	for _, t := range r.Trials {
		c := out[t.Kind]
		c[0]++
		if t.Err != nil {
			c[1]++
		}
		out[t.Kind] = c
	}
	return out
}

// Summary renders the human-readable contract report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d corruptions (seed %d): %d rejected, %d accepted as still-valid (%d salvaged)\n",
		len(r.Trials), r.Seed, r.Rejected, r.Accepted, r.Salvaged)
	byKind := r.ByKind()
	kinds := make([]Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		c := byKind[k]
		fmt.Fprintf(&b, "  %-16s %4d trials, %4d rejected\n", k, c[0], c[1])
	}
	fmt.Fprintf(&b, "contract: %d panics, %d unbounded allocations, %d untyped errors (peak alloc %d bytes/trial)\n",
		r.Panics, r.Unbounded, r.Untyped, r.MaxAlloc)
	return b.String()
}

// Run corrupts the container n times with a deterministic injector and
// drives each mutant through the full file-decode path (v2 or legacy v1,
// thread salvage on, Validate), checking the contract
// on every trial. The optional registry receives chaos.* counters (nil
// is off, as everywhere).
func Run(container []byte, n int, seed int64, reg *obs.Registry) *Report {
	in := NewInjector(seed)
	rep := &Report{Seed: seed}
	for i := 0; i < n; i++ {
		data, kind := in.CorruptFile(container, i)
		t := decodeTrial(data)
		t.Index, t.Kind = i, kind
		if t.Panicked {
			rep.Panics++
			reg.Counter("chaos.panics").Inc()
			reg.EmitLabeled("chaos.violation", "panic", uint64(i))
			reg.Logger().Error("chaos contract violation",
				"violation", "panic", "trial", i, "kind", kind.String())
		}
		if t.Unbounded {
			rep.Unbounded++
			reg.Counter("chaos.unbounded_allocs").Inc()
			reg.EmitLabeled("chaos.violation", "unbounded-alloc", uint64(i))
			reg.Logger().Error("chaos contract violation",
				"violation", "unbounded-alloc", "trial", i, "kind", kind.String(),
				"alloc_bytes", t.AllocBytes, "input_bytes", t.InputBytes)
		}
		if t.Err != nil {
			rep.Rejected++
			if !typedError(t.Err) {
				rep.Untyped++
				reg.Counter("chaos.untyped_errors").Inc()
				reg.EmitLabeled("chaos.violation", "untyped-error", uint64(i))
				reg.Logger().Error("chaos contract violation",
					"violation", "untyped-error", "trial", i, "kind", kind.String(),
					"err", t.Err.Error())
			}
		} else if !t.Panicked {
			rep.Accepted++
			if t.Salvaged > 0 {
				rep.Salvaged++
				reg.Counter("chaos.salvaged").Inc()
			}
		}
		if t.AllocBytes > rep.MaxAlloc {
			rep.MaxAlloc = t.AllocBytes
		}
		rep.Trials = append(rep.Trials, t)
		reg.Counter("chaos.trials").Inc()
		reg.Histogram("chaos.trial_alloc_bytes").Observe(int(t.AllocBytes))
	}
	return rep
}

// decodeTrial runs one corrupted file through the decode path under a
// panic guard, measuring the bytes it allocates.
func decodeTrial(data []byte) (t Trial) {
	t.InputBytes = len(data)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Panicked = true
				t.PanicValue = fmt.Sprintf("%v\n%s", r, debug.Stack())
			}
		}()
		var faults []trace.ThreadFault
		_, faults, t.Err = trace.Decode(data, trace.DecodeOptions{Salvage: true})
		t.Salvaged = len(faults)
	}()
	runtime.ReadMemStats(&after)
	t.AllocBytes = after.TotalAlloc - before.TotalAlloc
	t.Unbounded = t.AllocBytes > uint64(allocFactor*len(data))+allocSlackBytes
	return t
}

// typedError reports whether err is one of the trace package's typed
// failures — the only error classes the decode contract permits.
func typedError(err error) bool {
	var de *trace.DecodeError
	var ve *trace.ValidateError
	return errors.As(err, &de) || errors.As(err, &ve)
}
