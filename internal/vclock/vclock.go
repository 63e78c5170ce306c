// Package vclock implements vector clocks over dense thread ids.
//
// The paper's detector orders sequencing regions by a single global
// Lamport timestamp; vector clocks are the classical alternative that
// tracks the full happens-before partial order. The hb package implements
// both and the ablation bench compares them (DESIGN.md, A1).
package vclock

import (
	"fmt"
	"strings"
)

// VC is a vector clock indexed by thread id. The zero value is usable and
// denotes "before everything".
type VC []uint64

// At returns component tid (0 when tid is beyond v's length).
func (v VC) At(tid int) uint64 {
	if tid < len(v) {
		return v[tid]
	}
	return 0
}

// grow extends v in place to hold tid, returning the (possibly new) slice.
func (v VC) grow(tid int) VC {
	if tid < len(v) {
		return v
	}
	c := make(VC, tid+1)
	copy(c, v)
	return c
}

// Tick increments component tid and returns the updated clock.
func (v VC) Tick(tid int) VC {
	v = v.grow(tid)
	v[tid]++
	return v
}

// Join merges o into v (component-wise max) and returns the result.
func (v VC) Join(o VC) VC {
	v = v.grow(len(o) - 1)
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
	return v
}

// LessEq reports v ≤ o component-wise.
func (v VC) LessEq(o VC) bool {
	for i, x := range v {
		if x > o.At(i) {
			return false
		}
	}
	return true
}

// Concurrent reports that neither clock happens before the other.
func (v VC) Concurrent(o VC) bool { return !v.LessEq(o) && !o.LessEq(v) }

// String renders the clock compactly, e.g. "[3 0 1]".
func (v VC) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
