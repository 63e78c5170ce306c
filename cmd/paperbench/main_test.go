package main

import (
	"strings"
	"testing"
)

func TestTables(t *testing.T) {
	var b strings.Builder
	if err := realMain([]string{"-table", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "No State Change", "32", "68"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	if err := realMain([]string{"-table", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{"Table 2", "Redundant Writes", "61"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigures(t *testing.T) {
	for _, fig := range []string{"3", "4", "5"} {
		var b strings.Builder
		if err := realMain([]string{"-figure", fig}, &b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "Figure "+fig) {
			t.Errorf("figure %s header missing", fig)
		}
		if !strings.Contains(b.String(), "#") {
			t.Errorf("figure %s has no bars", fig)
		}
	}
}

func TestBadFlag(t *testing.T) {
	for _, flag := range []string{"-nonsense", "-perf-report"} {
		var b strings.Builder
		if err := realMain([]string{flag}, &b); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}

func TestPerfAndFullOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	if err := realMain([]string{"-perf"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Performance", "bits/instr", "native execution", "replay classification",
		"interquartile range", "native; paper ~280x", "clock:", "garbage collection:",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("perf output missing %q", want)
		}
	}

	b.Reset()
	if err := realMain(nil, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Figure 3", "Figure 4", "Figure 5",
		"Performance", "Ablations", "unique races: 68",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("full output missing %q", want)
		}
	}
}

func TestMarkdownFlag(t *testing.T) {
	var b strings.Builder
	if err := realMain([]string{"-md"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "## Table 1") || !strings.Contains(b.String(), "| **Total** |") {
		t.Errorf("markdown output incomplete")
	}
}

// TestRejectsBadSelectors: a selector naming no table or figure, or a
// seed count below one, is an error naming the flag, returned before the
// suite runs and before anything is printed.
func TestRejectsBadSelectors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-table", "3"}, "-table"},
		{[]string{"-table", "-1"}, "-table"},
		{[]string{"-figure", "6"}, "-figure"},
		{[]string{"-figure", "2"}, "-figure"},
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-seeds", "-3", "-table", "1"}, "-seeds"},
	} {
		var b strings.Builder
		err := realMain(tc.args, &b)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		if b.Len() != 0 {
			t.Errorf("%v printed output:\n%s", tc.args, b.String())
		}
	}
}
