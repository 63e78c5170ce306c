package debug

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const counterSrc = `
.entry main
.word counter 0
producer:
  ldi r5, 5
ploop:
  ldi r2, counter
  ld r3, [r2+0]
  addi r3, r3, 10
  st [r2+0], r3
  sys sysnop
  addi r5, r5, -1
  bne r5, r0, ploop
  ldi r1, 0
  sys exit
main:
  ldi r1, producer
  ldi r2, 0
  sys spawn
  sys join
  ldi r2, counter
  ld r1, [r2+0]
  sys print
  halt
`

func recordCounter(t *testing.T) *trace.Log {
	t.Helper()
	prog, err := asm.Assemble("dbg", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := record.Run(prog, machine.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestDebuggerSeekAndMemory(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pos() != d.Len() {
		t.Fatalf("fresh debugger should sit at the end (%d/%d)", d.Pos(), d.Len())
	}
	counterAddr := isa.DataBase

	// At the end the counter holds 50.
	if v, _ := d.Mem(counterAddr); v != 50 {
		t.Errorf("final counter = %d, want 50", v)
	}
	// Walk backwards: the value must be non-increasing and reach 0.
	prev := uint64(50)
	for pos := d.Len(); pos >= 1; pos-- {
		d.Seek(pos)
		v, _ := d.Mem(counterAddr)
		if v > prev {
			t.Fatalf("counter increased going backwards: %d -> %d at pos %d", prev, v, pos)
		}
		prev = v
	}
	if prev != 0 {
		t.Errorf("counter at position 1 = %d, want 0", prev)
	}
}

func TestDebuggerStepAndClamp(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	d.Seek(1)
	if d.Step(2); d.Pos() != 3 {
		t.Fatalf("step: pos = %d", d.Pos())
	}
	if d.Step(-1); d.Pos() != 2 {
		t.Fatalf("back: pos = %d", d.Pos())
	}
	if d.Step(-99); d.Pos() != 1 {
		t.Fatalf("clamp low: pos = %d", d.Pos())
	}
	if d.Step(999); d.Pos() != d.Len() {
		t.Fatalf("clamp high: pos = %d", d.Pos())
	}
}

func TestDebuggerWritesTo(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	ws := d.WritesTo(isa.DataBase)
	if len(ws) != 5 {
		t.Fatalf("writes = %d, want 5", len(ws))
	}
	for i, w := range ws {
		if w.Val != uint64(10*(i+1)) {
			t.Errorf("write %d value = %d, want %d", i, w.Val, 10*(i+1))
		}
		if w.TID != 1 {
			t.Errorf("write %d by thread %d, want 1", i, w.TID)
		}
	}
	first, ok := d.FirstWriteTo(isa.DataBase)
	if !ok || first.Val != 10 {
		t.Errorf("first write = %+v, %v", first, ok)
	}
	if _, ok := d.FirstWriteTo(0xdddd); ok {
		t.Error("phantom write")
	}
	// Seeking to just before the first write shows 0; just after shows 10.
	d.Seek(first.Pos - 1)
	if v, _ := d.Mem(isa.DataBase); v != 0 {
		t.Errorf("before first write: %d, want 0", v)
	}
	d.Seek(first.Pos)
	if v, _ := d.Mem(isa.DataBase); v != 10 {
		t.Errorf("after first write: %d, want 10", v)
	}
}

func TestDebuggerThreadAndOutput(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Thread(0); !ok {
		t.Error("main thread missing")
	}
	if _, ok := d.Thread(9); ok {
		t.Error("phantom thread")
	}
	if out := d.Output(0); len(out) != 1 || out[0] != 50 {
		t.Errorf("main output = %v, want [50]", out)
	}
	d.Seek(d.Len())
	if v, ok := d.Mem(isa.DataBase); !ok || v != 50 {
		t.Errorf("memory at the end = %d,%v", v, ok)
	}
	if s := d.Summary(); !strings.Contains(s, "position") || !strings.Contains(s, "thread 0") {
		t.Errorf("summary incomplete: %s", s)
	}
}

func TestREPLSession(t *testing.T) {
	log := recordCounter(t)
	script := `
pos
step 3
mem 0x1000
back 2
mem 0x1000
regions
writes 0x1000
first 0x1000
regs 0
output 0
seek 1
mem 0x1000
bogus
help
quit
`
	var out strings.Builder
	if err := REPL(log, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"time-travel debugger",
		"position",
		"mem[0x1000]",
		"first write at pos",
		"unknown command \"bogus\"",
		"commands:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("REPL output missing %q:\n%s", want, text)
		}
	}
}

func TestREPLQuitAndEOF(t *testing.T) {
	log := recordCounter(t)
	var out strings.Builder
	if err := REPL(log, strings.NewReader("quit\n"), &out); err != nil {
		t.Fatal(err)
	}
	// EOF without quit is also a clean exit.
	if err := REPL(log, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
}

func TestThreadStateAtViaDebugger(t *testing.T) {
	log := recordCounter(t)
	d, err := New(log)
	if err != nil {
		t.Fatal(err)
	}
	tl := log.Thread(1)
	st, err := d.ThreadStateAt(1, tl.Retired)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := d.Thread(1)
	if st.Cpu.Regs != full.Regs {
		t.Error("instruction-granular final state differs from region-granular")
	}
	if _, err := d.ThreadStateAt(42, 0); err == nil {
		t.Error("phantom thread accepted")
	}
}

func TestREPLTstate(t *testing.T) {
	log := recordCounter(t)
	var out strings.Builder
	if err := REPL(log, strings.NewReader("tstate 1 3\ntstate 99 0\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "thread 1 after 3 instructions") {
		t.Errorf("tstate output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "error:") {
		t.Error("bad tid should error")
	}
}

// TestREPLParsesArgumentsStrictly: a malformed number or address is an
// error that changes nothing, a missing argument keeps its default, and
// an address is hex only with a 0x or 0X prefix.
func TestREPLParsesArgumentsStrictly(t *testing.T) {
	log := recordCounter(t)
	for _, c := range []struct {
		name    string
		script  string
		want    []string // lines the transcript must contain
		notWant []string // substrings it must not contain
		pos     int      // the last position printed, 0 to skip
	}{
		{name: "step defaults to one", script: "seek 5\nstep", pos: 6},
		{name: "back defaults to one", script: "seek 5\nback", pos: 4},
		{name: "seek defaults to one", script: "seek 5\nseek", pos: 1},
		{name: "bad step count", script: "seek 5\nstep abc\npos",
			want: []string{`error: bad number "abc"`}, pos: 5},
		{name: "bad back count", script: "seek 5\nback 2x\npos",
			want: []string{`error: bad number "2x"`}, pos: 5},
		{name: "bad seek position", script: "seek 5\nseek 7y\npos",
			want: []string{`error: bad number "7y"`}, pos: 5},
		{name: "bad regs thread", script: "regs x",
			want: []string{`error: bad number "x"`}, notWant: []string{"pc="}},
		{name: "bad output thread", script: "output 1z",
			want: []string{`error: bad number "1z"`}, notWant: []string{"output:"}},
		{name: "bad tstate thread", script: "tstate z 3",
			want: []string{`error: bad number "z"`}, notWant: []string{"instructions: pc="}},
		{name: "negative tstate index", script: "tstate 1 -1",
			want: []string{"error: negative instruction index -1"}, notWant: []string{"instructions: pc="}},
		{name: "tstate index defaults to zero", script: "tstate 1",
			want: []string{"thread 1 after 0 instructions: pc=0"}},
		{name: "lower-case hex address", script: "mem 0x1000",
			want: []string{"mem[0x1000] = 50"}},
		{name: "upper-case hex address", script: "mem 0X1000",
			want: []string{"mem[0x1000] = 50"}},
		{name: "decimal address", script: "mem 4096",
			want: []string{"mem[0x1000] = 50"}},
		{name: "leading zero is decimal, not octal", script: "mem 010",
			want: []string{"mem[0xa] = 0 (never written up to here)"}},
		{name: "bare hex prefix", script: "mem 0x",
			want: []string{`error: bad address "0x"`}},
		{name: "bad hex digit", script: "writes 0x10g0",
			want: []string{`error: bad address "0x10g0"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := REPL(log, strings.NewReader("seek 999\n"+c.script+"\nquit\n"), &out); err != nil {
				t.Fatal(err)
			}
			text := out.String()
			lines := strings.Split(text, "\n")
			for _, w := range c.want {
				found := false
				for _, l := range lines {
					found = found || l == w
				}
				if !found {
					t.Errorf("transcript lacks line %q:\n%s", w, text)
				}
			}
			for _, nw := range c.notWant {
				if strings.Contains(text, nw) {
					t.Errorf("transcript contains %q:\n%s", nw, text)
				}
			}
			if c.pos > 0 {
				last := ""
				for _, l := range lines {
					if strings.HasPrefix(l, "position ") {
						last = l
					}
				}
				if want := fmt.Sprintf("position %d/", c.pos); !strings.HasPrefix(last, want) {
					t.Errorf("last position line %q, want %q...:\n%s", last, want, text)
				}
			}
		})
	}
}

// TestDebuggerMatchesThreadStateAt checks the debugger's thread states
// against replay.ThreadStateAt, which replays one thread on its own from
// its log: at every position of every suite log, each thread's registers
// must equal its state after the instructions of its regions that have
// run. At the end, each thread's output must be all it printed.
func TestDebuggerMatchesThreadStateAt(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	checked, failed := 0, 0
	for _, sc := range workloads.SuiteScenarios(seeds) {
		prog, err := sc.Program()
		if err != nil {
			t.Fatal(err)
		}
		log, _, err := record.Run(prog, sc.Config())
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(log)
		if err != nil {
			t.Fatal(err)
		}
		states := map[[2]uint64]machine.Cpu{} // (tid, idx) → reference state
		for pos := 1; pos <= d.Len(); pos++ {
			d.Seek(pos)
			for _, tl := range log.Threads {
				// The instructions run so far: up to the first region of
				// the thread that has not run, or all of them.
				idx := tl.Retired
				for _, r := range d.full.Thread(tl.TID).Regions {
					if r.Global >= pos {
						idx = r.StartIdx
						break
					}
				}
				key := [2]uint64{uint64(tl.TID), idx}
				want, ok := states[key]
				if !ok {
					st, err := replay.ThreadStateAt(log, tl.TID, idx)
					if err != nil {
						t.Fatal(err)
					}
					want = st.Cpu
					states[key] = want
				}
				if got, _ := d.Thread(tl.TID); got != want {
					if failed++; failed <= 3 {
						t.Errorf("%s seed %d pos %d thread %d: debugger %+v, ThreadStateAt(%d) %+v",
							sc.Name, sc.Seed, pos, tl.TID, got, idx, want)
					}
				}
				checked++
			}
		}
		for _, th := range d.full.Threads {
			if got := d.Output(th.TID); fmt.Sprint(got) != fmt.Sprint(th.Output) {
				t.Errorf("%s seed %d thread %d: output at the end %v, printed %v", sc.Name, sc.Seed, th.TID, got, th.Output)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d thread states differ", failed, checked)
	}
	t.Logf("%d thread states checked", checked)
}
