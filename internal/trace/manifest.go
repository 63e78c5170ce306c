package trace

import (
	"encoding/json"
	"fmt"
	"os"
)

// ManifestSchemaID identifies the manifest JSON layout; bump on
// incompatible change. v2 re-keyed LogSHA256 from the retired v1
// serialization to the v2 container, so a v1 manifest matches no log
// and is rejected by Validate instead.
const ManifestSchemaID = "racereplay-manifest/v2"

// Manifest is the record-suite sidecar that carries each recorded
// log's online-detector verdict across process boundaries. The Online
// annotation on a Log is in-memory only — the wire format never
// serializes it — so without the manifest a separate analyze-dir
// process must take the full offline pass even for logs the online
// detector already proved race-free. The manifest closes that gap: a
// consumer that trusts an entry (filename AND content hash must both
// match) may re-attach the verdict and take the race-free fast path.
//
// The manifest is advisory, never authoritative: a missing, stale, or
// mismatched entry only costs the fast path, and raced or stopped
// entries are recorded for provenance but never skip anything.
type Manifest struct {
	Schema  string          `json:"schema"`
	Entries []ManifestEntry `json:"entries"`
}

// ManifestEntry is one recorded log's verdict record.
type ManifestEntry struct {
	// File is the log's base filename within the recording directory.
	File string `json:"file"`
	// LogSHA256 is the hex SHA-256 of the log's v2 container
	// (core.LogDigest) — the sha256sum of the .rlog file record-suite
	// wrote; an entry applies only to a log with this exact content
	// identity.
	LogSHA256 string `json:"log_sha256"`
	// RaceFree reports the online detector's verdict for the recording.
	RaceFree bool `json:"race_free"`
	// Races counts the distinct racy site pairs observed (0 if RaceFree).
	Races int `json:"races,omitempty"`
	// Stopped reports that recording ended early under stop-on-race; a
	// stopped log always takes the full offline pass.
	Stopped bool `json:"stopped,omitempty"`
	// ObservedPCs lists, ascending, every code index that performed a
	// data memory access — what the race-free fast path substitutes for
	// the replay's observed-site set.
	ObservedPCs []int `json:"observed_pcs,omitempty"`
}

// NewManifest returns an empty manifest envelope.
func NewManifest() *Manifest { return &Manifest{Schema: ManifestSchemaID} }

// Add appends one log's verdict under its filename and content hash.
func (m *Manifest) Add(file, sha256 string, info *OnlineInfo) {
	e := ManifestEntry{File: file, LogSHA256: sha256}
	if info != nil {
		e.RaceFree = info.RaceFree
		e.Races = info.Races
		e.Stopped = info.Stopped
		e.ObservedPCs = append([]int(nil), info.ObservedPCs...)
	}
	m.Entries = append(m.Entries, e)
}

// Lookup returns the entry matching both the filename and the content
// hash, or nil. Both must match: a renamed file or a re-recorded log
// with the same name silently loses its entry instead of inheriting a
// stale verdict.
func (m *Manifest) Lookup(file, sha256 string) *ManifestEntry {
	if m == nil {
		return nil
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.File == file && e.LogSHA256 == sha256 {
			return e
		}
	}
	return nil
}

// Online converts an entry back into the in-memory annotation the
// race-free fast path consumes.
func (e *ManifestEntry) Online() *OnlineInfo {
	return &OnlineInfo{
		RaceFree:    e.RaceFree,
		Races:       e.Races,
		Stopped:     e.Stopped,
		ObservedPCs: append([]int(nil), e.ObservedPCs...),
	}
}

// Validate checks the envelope against the schema contract.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchemaID {
		return fmt.Errorf("manifest schema %q, want %q", m.Schema, ManifestSchemaID)
	}
	for i, e := range m.Entries {
		if e.File == "" {
			return fmt.Errorf("manifest entry %d has no filename", i)
		}
		if len(e.LogSHA256) != 64 {
			return fmt.Errorf("manifest entry %s: log hash %q is not a hex sha256", e.File, e.LogSHA256)
		}
		if e.RaceFree && e.Races > 0 {
			return fmt.Errorf("manifest entry %s: race-free with %d races", e.File, e.Races)
		}
	}
	return nil
}

// WriteFile validates and writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("manifest: refusing to serialize invalid file: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", path, err)
	}
	return &m, nil
}
