package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleManifest() *Manifest {
	m := NewManifest()
	m.Add("a-0.rlog", strings.Repeat("ab", 32), &OnlineInfo{RaceFree: true, ObservedPCs: []int{2, 5}})
	m.Add("b-0.rlog", strings.Repeat("cd", 32), &OnlineInfo{Races: 3, ObservedPCs: []int{1}})
	m.Add("c-0.rlog", strings.Repeat("ef", 32), nil)
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := sampleManifest()
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchemaID || len(got.Entries) != 3 {
		t.Fatalf("round trip: schema %q, %d entries", got.Schema, len(got.Entries))
	}
	e := got.Lookup("a-0.rlog", strings.Repeat("ab", 32))
	if e == nil || !e.RaceFree {
		t.Fatalf("race-free entry lost in round trip: %+v", e)
	}
	info := e.Online()
	if !info.RaceFree || len(info.ObservedPCs) != 2 || info.ObservedPCs[1] != 5 {
		t.Fatalf("Online() = %+v", info)
	}
}

// TestManifestLookupRequiresBothKeys: a renamed file or a re-recorded
// log with the same name must lose its entry, never inherit a stale
// verdict.
func TestManifestLookupRequiresBothKeys(t *testing.T) {
	m := sampleManifest()
	if m.Lookup("a-0.rlog", strings.Repeat("cd", 32)) != nil {
		t.Error("lookup matched on filename alone")
	}
	if m.Lookup("renamed.rlog", strings.Repeat("ab", 32)) != nil {
		t.Error("lookup matched on content hash alone")
	}
	if m.Lookup("a-0.rlog", strings.Repeat("ab", 32)) == nil {
		t.Error("exact lookup missed")
	}
	var nilMan *Manifest
	if nilMan.Lookup("a-0.rlog", strings.Repeat("ab", 32)) != nil {
		t.Error("nil manifest lookup did not return nil")
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"bad schema", func(m *Manifest) { m.Schema = "racereplay-manifest/v0" }, "schema"},
		{"no filename", func(m *Manifest) { m.Entries[0].File = "" }, "filename"},
		{"bad hash", func(m *Manifest) { m.Entries[1].LogSHA256 = "beef" }, "sha256"},
		{"race-free with races", func(m *Manifest) { m.Entries[0].Races = 2 }, "race-free with"},
	}
	for _, tc := range cases {
		m := sampleManifest()
		tc.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
		if err := m.WriteFile(filepath.Join(t.TempDir(), "m.json")); err == nil {
			t.Errorf("%s: WriteFile serialized an invalid manifest", tc.name)
		}
	}
	if err := sampleManifest().Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

// TestReadManifestErrors: a missing file surfaces os.IsNotExist so
// callers can distinguish "no manifest" from "corrupt manifest"; corrupt
// and schema-violating files return typed errors.
func TestReadManifestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Errorf("missing manifest: err = %v, want IsNotExist", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bad); err == nil || os.IsNotExist(err) {
		t.Errorf("corrupt manifest: err = %v, want parse error", err)
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"schema":"other/v1","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(wrong); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema: err = %v", err)
	}
	// A manifest from before the v2 re-keying: its hashes name v1
	// serializations, so the whole file is refused rather than matching
	// nothing in silence.
	old := filepath.Join(dir, "v1.json")
	body := `{"schema":"racereplay-manifest/v1","entries":[{"file":"a.rlog","log_sha256":"` +
		strings.Repeat("ab", 32) + `","race_free":true}]}`
	if err := os.WriteFile(old, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(old); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("v1-schema manifest: err = %v, want schema error", err)
	}
}
