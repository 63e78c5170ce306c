package debug

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/trace"
)

// REPL runs a scriptable debugger session: one command per line from in,
// responses to out. Commands:
//
//	pos              show the current position and thread states
//	step [n]         run n regions forward (default 1)
//	back [n]         run n regions backward (default 1)
//	seek N           jump to position N
//	mem ADDR         read a memory word (hex 0x.. or decimal)
//	regs TID         show a thread's registers
//	tstate TID IDX   registers of TID after exactly IDX instructions
//	output TID       show a thread's printed values so far
//	regions          list the region schedule
//	writes ADDR      list every write to ADDR across the execution
//	first ADDR       earliest write to ADDR (root-cause helper)
//	quit             end the session
func REPL(log *trace.Log, in io.Reader, out io.Writer) error {
	d, err := New(log)
	if err != nil {
		return err
	}
	d.Seek(1)
	fmt.Fprintf(out, "time-travel debugger: %d regions, %d threads (type 'help')\n", d.Len(), len(d.full.Threads))
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if cmd := fields[0]; cmd == "quit" || cmd == "q" || cmd == "exit" {
			return nil
		}
		if err := d.command(out, fields[0], fields[1:]); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	return sc.Err()
}

// command runs one REPL command other than quit. A malformed argument is
// an error, returned before the command changes anything.
func (d *Debugger) command(out io.Writer, cmd string, args []string) error {
	switch cmd {
	case "help":
		fmt.Fprintln(out, "commands: pos step back seek mem regs tstate output regions writes first quit")
	case "pos":
		fmt.Fprint(out, d.Summary())
	case "step", "back", "seek":
		n, err := intArg(args, 0, 1)
		if err != nil {
			return err
		}
		switch cmd {
		case "step":
			d.Step(n)
		case "back":
			d.Step(-n)
		case "seek":
			d.Seek(n)
		}
		fmt.Fprint(out, d.Summary())
	case "mem":
		addr, err := parseAddr(args)
		if err != nil {
			return err
		}
		if v, known := d.Mem(addr); known {
			fmt.Fprintf(out, "mem[0x%x] = %d\n", addr, v)
		} else {
			fmt.Fprintf(out, "mem[0x%x] = 0 (never written up to here)\n", addr)
		}
	case "regs":
		tid, err := intArg(args, 0, 0)
		if err != nil {
			return err
		}
		cpu, ok := d.Thread(tid)
		if !ok {
			fmt.Fprintf(out, "no thread %d\n", tid)
			return nil
		}
		fmt.Fprintf(out, "thread %d pc=%d\n", tid, cpu.PC)
		printRegs(out, cpu)
	case "tstate":
		tid, err := intArg(args, 0, 0)
		if err != nil {
			return err
		}
		idx, err := intArg(args, 1, 0)
		if err != nil {
			return err
		}
		if idx < 0 {
			return fmt.Errorf("negative instruction index %d", idx)
		}
		st, err := d.ThreadStateAt(tid, uint64(idx))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "thread %d after %d instructions: pc=%d\n", tid, idx, st.Cpu.PC)
		printRegs(out, st.Cpu)
	case "output":
		tid, err := intArg(args, 0, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "thread %d output: %v\n", tid, d.Output(tid))
	case "regions":
		for i := 0; i < d.Len(); i++ {
			r, _ := d.Region(i)
			marker := "  "
			if i == d.Pos()-1 {
				marker = "=>"
			}
			fmt.Fprintf(out, "%s %3d thread %d  [%s..%s)  idx %d..%d  (%d accesses)\n",
				marker, i+1, r.TID, r.StartKind, r.EndKind, r.StartIdx, r.EndIdx, len(r.Accesses))
		}
	case "writes":
		addr, err := parseAddr(args)
		if err != nil {
			return err
		}
		ws := d.WritesTo(addr)
		if len(ws) == 0 {
			fmt.Fprintf(out, "no writes to 0x%x\n", addr)
		}
		for _, w := range ws {
			fmt.Fprintf(out, "  pos %3d: thread %d stores %d (pc %d, %s)\n",
				w.Pos, w.TID, w.Val, w.PC, d.full.Prog.SiteOf(w.PC))
		}
	case "first":
		addr, err := parseAddr(args)
		if err != nil {
			return err
		}
		if w, ok := d.FirstWriteTo(addr); ok {
			fmt.Fprintf(out, "first write at pos %d: thread %d stores %d (%s)\n",
				w.Pos, w.TID, w.Val, d.full.Prog.SiteOf(w.PC))
		} else {
			fmt.Fprintf(out, "0x%x is never written\n", addr)
		}
	default:
		fmt.Fprintf(out, "unknown command %q (try 'help')\n", cmd)
	}
	return nil
}

// printRegs prints the non-zero registers of cpu.
func printRegs(out io.Writer, cpu machine.Cpu) {
	for i, r := range cpu.Regs {
		if r != 0 {
			fmt.Fprintf(out, "  r%-2d = %d\n", i, r)
		}
	}
}

// intArg parses args[i] as a decimal integer, or returns def when the
// argument is absent.
func intArg(args []string, i, def int) (int, error) {
	if i >= len(args) {
		return def, nil
	}
	n, err := strconv.Atoi(args[i])
	if err != nil {
		return 0, fmt.Errorf("bad number %q", args[i])
	}
	return n, nil
}

// parseAddr parses an address: hex with a 0x or 0X prefix, decimal
// otherwise.
func parseAddr(args []string) (uint64, error) {
	if len(args) == 0 {
		return 0, fmt.Errorf("address required")
	}
	s, base := args[0], 10
	if len(s) > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 64)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", args[0])
	}
	return v, nil
}
