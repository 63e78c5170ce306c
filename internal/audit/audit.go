// Package audit is the verdict-provenance schema of the pipeline: one
// versioned, machine-readable record per classified race explaining
// where its verdict came from — which input log (by content hash),
// which live-in fingerprints, whether each instance's dual-order replay
// was served from the memo cache, and what both replay orders produced.
//
// The schema is the on-disk contract a long-running `racer serve`
// process will persist (ROADMAP item 1), so it is deliberately plain:
// strings and integers only, no internal types, versioned by SchemaID.
// Everything in a File is a deterministic function of the analyzed
// inputs — records are byte-identical at any worker count. The one
// subtlety is the cache column: which instance of a shared fingerprint
// replays depends on worker interleaving, so CacheHit is *derived*
// (DeriveCacheHits) as "would the canonical serial schedule have hit",
// i.e. every instance after the first occurrence of its fingerprint in
// file order. The memo replays each fingerprint once, so the derived
// hit and miss totals equal the runtime memo's at every worker count.
package audit

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaID identifies the JSON layout; bump on incompatible change.
const SchemaID = "racereplay-audit/v1"

// File is the versioned envelope: the provenance of one batch analysis
// (a suite run, an analyze-dir batch), execution by execution in input
// order.
type File struct {
	Schema     string      `json:"schema"`
	Executions []Execution `json:"executions"`
}

// Execution is the provenance of one analyzed (or quarantined)
// execution.
type Execution struct {
	// Scenario labels the execution (scenario name or log file name).
	Scenario string `json:"scenario"`
	// Seed is the scheduler seed the execution was recorded under.
	Seed int64 `json:"seed,omitempty"`
	// LogSHA256 is the hex SHA-256 of the input log's canonical
	// serialization — the content identity replay verdicts attach to.
	// Empty when the execution quarantined before a log existed.
	LogSHA256 string `json:"log_sha256,omitempty"`
	// Quarantined, when non-empty, is the reason this execution
	// produced no verdicts; Races is empty.
	Quarantined string `json:"quarantined,omitempty"`
	// Races are the classified races of this execution, in report
	// order.
	Races []Race `json:"races,omitempty"`
}

// Race is the provenance of one classified race in one execution.
type Race struct {
	SiteA      string `json:"site_a"`
	SiteB      string `json:"site_b"`
	Verdict    string `json:"verdict"` // potentially-benign | potentially-harmful
	Group      string `json:"group"`   // no-state-change | state-change | replay-failure
	Suppressed bool   `json:"suppressed,omitempty"`
	// Predicted marks a race the prediction stage proposed (a feasible
	// reordering of the recorded schedule) rather than one the observed
	// interleaving exhibited. The field is additive and omitted when
	// false, so v1 files written before prediction existed stay valid.
	Predicted bool       `json:"predicted,omitempty"`
	Instances []Instance `json:"instances,omitempty"`
}

// Instance is the provenance of one dual-order replay.
type Instance struct {
	// Fingerprint is the hex live-in fingerprint (vproc.Fingerprint)
	// keying the replay cache: equal fingerprints imply equal results.
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports whether the canonical serial schedule serves
	// this instance from the memo (see DeriveCacheHits).
	CacheHit bool `json:"cache_hit"`
	// Outcome is the combined verdict: no-state-change, state-change,
	// or replay-failure.
	Outcome string `json:"outcome"`
	// OrigOrder and AltOrder are the two replay orders' individual
	// outcomes: "ok", or the failure reason.
	OrigOrder string `json:"orig_order"`
	AltOrder  string `json:"alt_order"`
	// Diffs counts live-out discrepancies (state-change only).
	Diffs int `json:"diffs,omitempty"`
}

// NewFile returns an empty envelope.
func NewFile() *File { return &File{Schema: SchemaID} }

// DeriveCacheHits recomputes every instance's CacheHit flag as the
// canonical serial schedule would have seen it: walking executions,
// races, and instances in file order, the first occurrence of each
// fingerprint is a miss and every later one a hit. This is what makes
// audit files byte-identical at every -jobs count — the runtime's
// actual hit pattern depends on worker interleaving, the canonical one
// only on the inputs. Call it once after the file is assembled.
func (f *File) DeriveCacheHits() {
	seen := make(map[string]bool)
	for ei := range f.Executions {
		for ri := range f.Executions[ei].Races {
			insts := f.Executions[ei].Races[ri].Instances
			for ii := range insts {
				fp := insts[ii].Fingerprint
				insts[ii].CacheHit = seen[fp]
				seen[fp] = true
			}
		}
	}
}

// CacheHits counts (hits, misses) across every instance.
func (f *File) CacheHits() (hits, misses int) {
	for _, e := range f.Executions {
		for _, r := range e.Races {
			for _, in := range r.Instances {
				if in.CacheHit {
					hits++
				} else {
					misses++
				}
			}
		}
	}
	return
}

// Validate checks the envelope against the schema contract.
func (f *File) Validate() error {
	if f.Schema != SchemaID {
		return fmt.Errorf("schema %q, want %q", f.Schema, SchemaID)
	}
	for i, e := range f.Executions {
		if e.Scenario == "" {
			return fmt.Errorf("execution %d has no scenario label", i)
		}
		if e.Quarantined != "" && len(e.Races) > 0 {
			return fmt.Errorf("%s: quarantined execution carries races", e.Scenario)
		}
		if e.Quarantined == "" && e.LogSHA256 == "" {
			return fmt.Errorf("%s: analyzed execution lacks a log hash", e.Scenario)
		}
		for _, r := range e.Races {
			if r.SiteA == "" || r.SiteB == "" {
				return fmt.Errorf("%s: race with empty site pair", e.Scenario)
			}
			switch r.Verdict {
			case "potentially-benign", "potentially-harmful":
			default:
				return fmt.Errorf("%s: %s <-> %s: unknown verdict %q", e.Scenario, r.SiteA, r.SiteB, r.Verdict)
			}
			for _, in := range r.Instances {
				if len(in.Fingerprint) != 64 {
					return fmt.Errorf("%s: %s <-> %s: fingerprint %q is not a hex sha256",
						e.Scenario, r.SiteA, r.SiteB, in.Fingerprint)
				}
				if in.OrigOrder == "" || in.AltOrder == "" {
					return fmt.Errorf("%s: %s <-> %s: instance lacks per-order outcomes",
						e.Scenario, r.SiteA, r.SiteB)
				}
			}
		}
	}
	return nil
}

// Marshal renders the file as indented JSON (deterministic: field
// order is fixed by the struct tags, slices keep input order).
func (f *File) Marshal() ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("audit: refusing to serialize invalid file: %w", err)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile validates and writes the file as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := f.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads and validates an audit file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	return &f, nil
}
