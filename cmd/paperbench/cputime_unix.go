//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuClock names the clock cpuTime reads.
const cpuClock = "process CPU time (getrusage: user + system, every thread)"

// cpuTime is the user plus system CPU time of all the process's threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
