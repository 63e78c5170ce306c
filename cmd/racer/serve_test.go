package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeReportMatchesAnalyzeDir is the service's correctness anchor:
// uploading a directory's .rlog files to the daemon must produce a
// /v1/report byte-identical to a one-shot `racer analyze-dir` over the
// same directory — corrupt files included (both quarantine them) — at
// any worker count and any upload order.
func TestServeReportMatchesAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	capture(t, func() error { return cmdRecordSuite([]string{"-dir", dir, "-seeds", "1"}) })
	if err := os.WriteFile(filepath.Join(dir, "zz-corrupt.rlog"), []byte("garbage, not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldExit := exitCode
	exitCode = 0
	t.Cleanup(func() { exitCode = oldExit })

	want := capture(t, func() error { return cmdAnalyzeDir([]string{"-dir", dir}) })
	if exitCode != 2 {
		t.Fatalf("analyze-dir with a corrupt file exit = %d, want 2", exitCode)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.rlog"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)

	for _, tc := range []struct {
		jobs    int
		shuffle bool
	}{{1, false}, {4, true}} {
		srv, err := serve.New(serve.Config{DataDir: t.TempDir(), Jobs: tc.jobs})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		ts := httptest.NewServer(srv.Handler())
		order := append([]string(nil), files...)
		if tc.shuffle {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, path := range order {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			url := fmt.Sprintf("%s/v1/upload?tenant=ci&label=%s", ts.URL, filepath.Base(path))
			// A 429 is part of the contract, not a failure: honor the
			// Retry-After hint like a well-behaved client.
			deadline := time.Now().Add(time.Minute)
			for {
				resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusBadRequest {
					break
				}
				if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
					t.Fatalf("jobs=%d: upload %s = %d", tc.jobs, filepath.Base(path), resp.StatusCode)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
		got := waitMergedReport(t, srv)
		// analyze-dir's stdout is exactly the report text; the service
		// must reproduce it byte for byte.
		if got != want {
			t.Fatalf("jobs=%d: /v1/report differs from analyze-dir:\n--- serve\n%s\n--- analyze-dir\n%s", tc.jobs, got, want)
		}
		ts.Close()
	}
}

func waitMergedReport(t *testing.T, srv *serve.Server) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		text, pending := srv.MergedReport()
		if pending == 0 {
			return text
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("serve jobs not terminal after 2 minutes")
	return ""
}

// TestCmdServeEndToEnd drives the serve command itself: boot, upload a
// clean log and a corrupt one over real HTTP, then SIGTERM — the daemon
// must drain gracefully, print the span tree, and leave a journal
// a successor could resume from.
func TestCmdServeEndToEnd(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "out.rlog")
	capture(t, func() error { return cmdRecord([]string{"-seed", "3", "-o", logPath, writeProg(t)}) })
	payload, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()

	probeErr := make(chan error, 1)
	serveReady = func(addr string) {
		probeErr <- func() error {
			base := "http://" + addr
			resp, err := http.Post(base+"/v1/upload?tenant=ci&label=clean.rlog", "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("clean upload status = %d", resp.StatusCode)
			}
			resp, err = http.Post(base+"/v1/upload?tenant=ci&label=bad.rlog", "application/octet-stream", strings.NewReader("garbage"))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				return fmt.Errorf("corrupt upload status = %d", resp.StatusCode)
			}
			// Wait for the clean job's verdict, then ask for shutdown.
			deadline := time.Now().Add(time.Minute)
			for time.Now().Before(deadline) {
				resp, err := http.Get(base + "/v1/report")
				if err != nil {
					return err
				}
				pending := resp.Header.Get("X-Racer-Pending")
				resp.Body.Close()
				if pending == "0" {
					return syscall.Kill(os.Getpid(), syscall.SIGTERM)
				}
				time.Sleep(10 * time.Millisecond)
			}
			return fmt.Errorf("jobs still pending after a minute")
		}()
	}
	defer func() { serveReady = nil }()

	out := capture(t, func() error {
		return cmdServe([]string{"-addr", "127.0.0.1:0", "-data", dataDir})
	})
	if err := <-probeErr; err != nil {
		t.Fatalf("serve probe: %v", err)
	}
	for _, want := range []string{"analysis service on http://", "interrupted: draining and shutting down", "spans:\n  replay "} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
	// The data dir holds the journal with both verdicts.
	data, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"op":"accept"`); n != 2 {
		t.Errorf("journal accepts = %d, want 2", n)
	}
	if n := strings.Count(string(data), `"op":"done"`); n != 2 {
		t.Errorf("journal dones = %d, want 2", n)
	}
}

// TestCmdChaosServe wires the chaos HTTP mode through the CLI: a sweep
// against a live daemon passes when the daemon honors the contract.
func TestCmdChaosServe(t *testing.T) {
	srv, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	out := capture(t, func() error {
		return cmdChaos([]string{"-corruptions", "8", "-serve", ts.URL})
	})
	for _, want := range []string{"chaos http: 14 hostile requests", "service alive"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos -serve output missing %q:\n%s", want, out)
		}
	}
	waitServeDrained(t, srv)
}

func waitServeDrained(t *testing.T, srv *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if _, pending := srv.MergedReport(); pending == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("serve jobs not terminal after a minute")
}
