package record_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// pinnedPolicies are the scheduler policies every pinned scenario runs
// under, each at the scenario's seed and the one after it.
var pinnedPolicies = []machine.SchedPolicy{machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT}

// pinnedRows computes one row per pinned execution: "scenario policy
// seed" and three digests. native hashes the bare machine run's result
// (steps, final clock, deadlock, and each thread's state, retired count,
// exit code, fault, output and registers); record hashes the
// trace.MarshalV2 bytes of record.Run; online hashes the bytes of
// record.RunOnline with the detector and key frames every 500
// instructions, followed by the report's fields. It also checks that
// the detector only watches: with it attached, the log and the machine
// result are those of the same recording without it, with and without
// key frames.
func pinnedRows(t *testing.T) map[string]string {
	t.Helper()
	rows := make(map[string]string)
	for _, sc := range append(workloads.Scenarios(), workloads.BrowseScenario(), workloads.ServiceScenario()) {
		prog, err := sc.Program()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, p := range pinnedPolicies {
			for seed := sc.Seed; seed < sc.Seed+2; seed++ {
				cfg := sc.Config()
				cfg.Seed, cfg.Policy = seed, p
				key := fmt.Sprintf("%s %s %d", sc.Name, p, seed)

				m, err := machine.New(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				native := sha256.New()
				res := m.Run()
				fmt.Fprintf(native, "%d %d %v\n", res.TotalSteps, res.FinalClock, res.Deadlocked)
				for _, th := range res.Threads {
					fmt.Fprintf(native, "%d %s %d %d %v %v %v %d\n",
						th.ID, th.State, th.Retired, th.ExitCode, th.Fault, th.Output, th.Cpu.Regs, th.Cpu.PC)
				}

				log, rres, err := record.Run(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				plainBytes := trace.MarshalV2(log)
				plain := sha256.Sum256(plainBytes)

				dlog, dres, _, err := record.RunOnline(prog, cfg, record.OnlineConfig{Detect: true})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if !bytes.Equal(trace.MarshalV2(dlog), plainBytes) {
					t.Errorf("%s: the online detector changed the recorded log", key)
				}
				if !reflect.DeepEqual(dres, rres) {
					t.Errorf("%s: the online detector changed the machine result", key)
				}

				klog, _, _, err := record.RunOnline(prog, cfg, record.OnlineConfig{KeyFrameInterval: 500})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				olog, _, rep, err := record.RunOnline(prog, cfg, record.OnlineConfig{Detect: true, KeyFrameInterval: 500})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				onlineBytes := trace.MarshalV2(olog)
				if !bytes.Equal(onlineBytes, trace.MarshalV2(klog)) {
					t.Errorf("%s: the online detector changed the key-framed log", key)
				}
				online := sha256.New()
				online.Write(onlineBytes)
				fmt.Fprintf(online, "RaceFree=%v Races=%v Stopped=%v Checked=%d", rep.RaceFree, rep.Races, rep.Stopped, rep.Checked)

				rows[key] = fmt.Sprintf("native=%x record=%x online=%x", native.Sum(nil), plain, online.Sum(nil))
			}
		}
	}
	return rows
}

// TestRecordingsPinned pins the native run, the plain recording and the
// online recording of the 18 suite scenarios, browse and service under
// every scheduler policy at two seeds each against
// testdata/recordings.txt, so a change to the machine or the recorder
// that moves one schedule, fault, log byte or online verdict fails.
func TestRecordingsPinned(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "recordings.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 {
			t.Fatalf("malformed pin %q", line)
		}
		want[strings.Join(fields[:3], " ")] = strings.Join(fields[3:], " ")
	}
	got := pinnedRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows computed, %d pinned", len(got), len(want))
	}
	for key, g := range got {
		if g != want[key] {
			t.Errorf("%s:\n got    %s\n pinned %s", key, g, want[key])
		}
	}
}
