package report

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestOverheadLadder renders hand-built snapshots: every rung's label, the
// cumulative offline rungs (happens-before is replay plus detect,
// classification adds classify), each rung's multiple of the native span,
// the log-size line, and, without a native span, absolute times only.
func TestOverheadLadder(t *testing.T) {
	ms := int64(time.Millisecond)
	// The offline stages nest under another span, as they do under a
	// suite's per-execution spans.
	stages := []obs.SpanSnapshot{
		{Name: "record", Nanos: 3 * ms},
		{Name: "analyze", Nanos: 20 * ms, Children: []obs.SpanSnapshot{
			{Name: "replay", Nanos: 4 * ms},
			{Name: "detect", Nanos: 1 * ms},
			{Name: "classify", Nanos: 5 * ms},
		}},
	}
	for _, tc := range []struct {
		name string
		snap obs.Snapshot
		want string
	}{
		{"with native", obs.Snapshot{
			Counters: map[string]uint64{"native.executions": 2, "native.instructions": 1000},
			Gauges:   map[string]float64{"record.bits_per_instr_compressed": 0.456},
			Spans:    append([]obs.SpanSnapshot{{Name: "native", Nanos: 2 * ms}}, stages...),
		}, `Per-stage overhead ladder (from spans; cf. paper section 5.1)
  baseline over 2 native execution(s), 1000 instructions
  native execution:          2ms
  recording:                 3ms (1.5x native; paper ~6x on x86)
  replay:                    4ms (2.0x native; paper ~10x)
  happens-before analysis:   5ms (2.5x native; paper ~45x)
  replay classification:     10ms (5.0x native; paper ~280x)
  log size: 0.456 bits/instruction compressed (paper: ~0.5)
`},
		{"without native", obs.Snapshot{Spans: stages}, `Per-stage overhead ladder (from spans; cf. paper section 5.1)
  recording:                 3ms
  replay:                    4ms
  happens-before analysis:   5ms
  replay classification:     10ms
`},
	} {
		if got := OverheadLadder(tc.snap); got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
