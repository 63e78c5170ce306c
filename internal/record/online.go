// Online recording: the recorder holds the hb.Online detector and feeds
// it each event after logging it, so a single execution yields both the
// replay log and a raced/race-free verdict. The verdict is returned
// beside the log and leaves the log unchanged; the offline analysis
// replays the log whatever the verdict says.
package record

import (
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// OnlineConfig selects what rides along a recording: the online race
// detector and key frames. The zero value is a plain recording.
type OnlineConfig struct {
	// Detect gives the recorder an hb.Online detector. When false the run
	// is a plain recording (key frames still honored).
	Detect bool
	// StopOnFirstRace ends the run at the next scheduling-quantum
	// boundary after the first race is observed. The truncated log is
	// still valid (live threads get synthetic end sequencers) and the
	// offline pass confirms the race on it; the truncation point is
	// deterministic for a given seed.
	StopOnFirstRace bool
	// KeyFrameInterval, when positive, records key frames every that
	// many retired instructions, with or without Detect.
	KeyFrameInterval uint64
}

// RunOnline records prog with the online detector attached (per oc) and
// returns the log, the machine result and the detector's report. With
// oc.Detect false the report is nil and the run is a plain recording
// (key frames still honored).
func RunOnline(prog *isa.Program, cfg machine.Config, oc OnlineConfig) (*trace.Log, *machine.Result, *hb.OnlineReport, error) {
	return run(prog, cfg, oc, nil)
}

// RunOnlineInstrumented is RunOnline with stage metrics: the record span,
// the recorder's record.* and machine.* counters, and the
// detect.online.* family all publish into reg. A nil reg records without
// metrics.
func RunOnlineInstrumented(prog *isa.Program, cfg machine.Config, oc OnlineConfig, reg *obs.Registry) (*trace.Log, *machine.Result, *hb.OnlineReport, error) {
	return run(prog, cfg, oc, reg)
}
