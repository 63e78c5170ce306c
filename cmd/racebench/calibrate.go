package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark shares runs other tenants' work on the same
// cores, and while they are busy every instruction of this process takes
// longer: CPU time per unit of work drifted by up to 40% within minutes.
// A speedometer measures that drift with a fixed kernel run beside the
// work, and the benchmark reports CPU times rescaled to the kernel's
// reference speed. The kernel is a small register-machine interpreter, the
// same kind of branchy, cache-resident loop as the pipeline's interpreter
// and replayer, because such a kernel slowed with the workloads (a
// memory-bound kernel did not). It shares no code with the program under
// test, allocates nothing, and is timed in the CPU time of its own
// thread, so neither the program's changes nor its garbage collection
// move it.

// kernelRef is the kernel's thread CPU time per call on the machine the
// benchmark was defined on (two vCPUs, Go 1.24), when its neighbours were
// quiet. A CPU time rescaled to reference speed is the time the work
// would take on that machine at that speed.
const kernelRef = 650 * time.Microsecond

// kernelSteps is the instruction count of one kernel call.
const kernelSteps = 1 << 18

type kop struct{ op, a, b, c uint8 }

// kernelProgram mixes register arithmetic, loads and stores to a small
// memory, and a data-dependent branch.
var kernelProgram = [...]kop{{0, 0, 0, 1}, {1, 1, 1, 0}, {2, 2, 1, 3}, {3, 3, 2, 0}, {4, 0, 0, 0}, {5, 1, 0, 200}}

var kernelSink uint64

func kernel() {
	var reg [8]uint64
	var mem [256]uint64
	pc := 0
	for step := 0; step < kernelSteps; step++ {
		in := kernelProgram[pc]
		switch in.op {
		case 0:
			reg[in.a] += uint64(in.c)
		case 1:
			reg[in.a] ^= reg[in.b] << 1
		case 2:
			mem[reg[in.b]&255] = reg[in.a]
		case 3:
			reg[in.a] += mem[(reg[in.b]+7)&255]
		case 4:
			reg[4]++
		case 5:
			if reg[4]%uint64(in.c) != 0 {
				pc = -1
			}
		}
		if pc++; pc == len(kernelProgram) {
			pc = 0
		}
	}
	kernelSink += reg[0] ^ reg[3]
}

// speedometer accumulates kernel runs.
type speedometer struct {
	spent time.Duration // thread CPU time of the kernel calls
	calls int
}

// sampleTime is how long a sample taken between pieces of work runs the
// kernel, so that it spans several scheduler ticks of whatever the
// neighbours are doing.
const sampleTime = 2 * time.Millisecond

// sample runs the kernel for about sampleTime of thread CPU time, for
// serial work whose CPU time is taken call by call and cannot have a
// sampler running beside it.
func (s *speedometer) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for spent := time.Duration(0); spent < sampleTime; {
		start := threadCPUTime()
		kernel()
		d := threadCPUTime() - start
		spent += d
		s.spent += d
		s.calls++
	}
}

// samplePeriod spaces the kernel calls made while work runs: one call of
// about a millisecond every 20 ms, 5% of one CPU.
const samplePeriod = 20 * time.Millisecond

// during runs f while a sampler goroutine, locked to its own OS thread,
// calls the kernel at once and then once every samplePeriod, so the
// kernel meets the same neighbours and the same load from this process
// as the work does. It returns the CPU time the sampler's thread used,
// kernel calls and bookkeeping, for the caller to subtract from the
// process's.
func (s *speedometer) during(f func()) time.Duration {
	stop := make(chan struct{})
	used := make(chan time.Duration)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := threadCPUTime()
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			k := threadCPUTime()
			kernel()
			s.spent += threadCPUTime() - k
			s.calls++
			select {
			case <-stop:
				used <- threadCPUTime() - start
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	return <-used
}

// factor is the kernel's reference time over its measured time: 1 at
// reference speed, below 1 on a slower CPU. Multiplying a CPU time by it
// rescales the time to reference speed.
func (s *speedometer) factor() float64 {
	if s.calls == 0 {
		return 1
	}
	return float64(kernelRef) * float64(s.calls) / float64(s.spent)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID. Unlike
// getrusage(RUSAGE_THREAD), which counts in scheduler ticks, it reads the
// thread's runtime in nanoseconds.
const clockThreadCPUTime = 3

// threadCPUTime is the CPU time of the calling OS thread so far.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("racebench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
