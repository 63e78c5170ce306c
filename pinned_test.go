package racereplay

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// pinnedFingerprintRows computes one row per audited execution of the
// suite at two seeds with prediction on: "scenario seed", the count of
// audited instances and a digest over each instance's site pair,
// predicted flag, live-in fingerprint, outcome, both orders' results and
// diff count, in audit order.
func pinnedFingerprintRows(t *testing.T) map[string]string {
	t.Helper()
	run, err := workloads.RunSuite(workloads.SuiteOptions{Seeds: 2, Audit: true, Predict: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, e := range run.Audit.Executions {
		h := sha256.New()
		n := 0
		for _, r := range e.Races {
			for _, in := range r.Instances {
				fmt.Fprintf(h, "%s|%s|%v|%s|%s|%s|%s|%d\n",
					r.SiteA, r.SiteB, r.Predicted, in.Fingerprint, in.Outcome, in.OrigOrder, in.AltOrder, in.Diffs)
				n++
			}
		}
		rows[fmt.Sprintf("%s %d", e.Scenario, e.Seed)] = fmt.Sprintf("instances=%d sha256=%x", n, h.Sum(nil))
	}
	return rows
}

// TestFingerprintsPinned pins what the memo of an audited batch keys on
// and serves, against testdata/fingerprints.txt: a change that moves one
// instance's fingerprint or either order's result fails here, whether
// or not the merged report moves with it.
func TestFingerprintsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fingerprints.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("malformed pin %q", line)
		}
		want[strings.Join(fields[:2], " ")] = strings.Join(fields[2:], " ")
	}
	got := pinnedFingerprintRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if g != want[key] {
			t.Errorf("%s:\n got    %s\n pinned %s", key, g, want[key])
		}
	}
}
