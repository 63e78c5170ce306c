//go:build !unix

package main

import "time"

// cpuClock names the clock cpuTime reads.
const cpuClock = "wall time (this platform has no getrusage)"

var start = time.Now()

// cpuTime stands in for CPU time with the wall time since start.
func cpuTime() time.Duration { return time.Since(start) }
