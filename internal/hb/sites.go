package hb

import "repro/internal/isa"

// siteMemo formats a program's site strings on demand. A site string is
// a pure function of the PC, but SiteOf on a decoded program (which has
// no Sources) scans the whole label map, and only the few PCs that race
// need one. So an engine formats a PC the first time one of its pairs
// names it, once. Each Search call and each Online detector owns its
// memo, so nothing is shared between goroutines.
type siteMemo struct {
	prog  *isa.Program
	sites []string // by pc, "" until formatted
}

// site returns pc's site string, formatting it on first use. Out-of-range
// PCs, which SiteOf renders as a raw index, are not memoized.
func (m *siteMemo) site(pc int) string {
	if pc < 0 || pc >= len(m.prog.Code) {
		return m.prog.SiteOf(pc)
	}
	if m.sites == nil {
		m.sites = make([]string, len(m.prog.Code))
	}
	if m.sites[pc] == "" {
		m.sites[pc] = m.prog.SiteOf(pc)
	}
	return m.sites[pc]
}
