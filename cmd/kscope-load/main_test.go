package main

import (
	"strings"
	"testing"
)

// TestRunSmoke is every scenario in miniature: each row is its `make
// <name>-smoke` run scaled down, through the same run() the binary calls,
// so the standard audit and the scenario's own gates decide pass or fail;
// want pins the lines that prove the scenario did what it is for.
func TestRunSmoke(t *testing.T) {
	rows := []struct {
		scenario string
		args     []string
		want     []string
	}{
		{"soak", []string{"-workers", "8", "-seed", "42", "-concurrency", "4", "-drop", "0.1", "-fault", "0.1", "-retries", "15", "-results-every", "2"},
			[]string{"8 workers", "sessions: 8 completed, 0 failed", "chaos:", "held to read-your-acks",
				"oracle: load-test incremental == from-scratch", "POST /api/tests/{id}/sessions"}},
		// A saturated admission stampede, a mid-run disk outage that trips
		// the breaker into degraded mode, full recovery.
		{"overload", []string{"-workers", "15", "-seed", "42", "-concurrency", "8", "-drop", "0.05", "-fault", "0.05"},
			[]string{"15 workers", "sessions: 15 completed, 0 failed", "fault: disk outage", "breaker trips", "breaker now closed",
				"429×", "503×", "oracle: load-test incremental == from-scratch"}},
		{"throughput", []string{"-workers", "12", "-seed", "3", "-batch", "5"},
			[]string{"sessions: 12 completed, 0 failed", "POST /api/tests/{id}/sessions:batch", "batches: 3 requests of up to 5", "12 stored"}},
		{"failover", []string{"-workers", "9", "-seed", "7", "-drop", "0.1", "-fault", "0.05"},
			[]string{"victim: shard 0 (home of [load-test]), killed once 3 workers", "fault: kill shard 0's primary, promote its standby to epoch 2",
				"fencing: shard 0 zombie (epoch 1)", "acked-loss audit: all 9"}},
		{"multinode", []string{"-workers", "6", "-seed", "7", "-drop", "0.05", "-fault", "0.05"},
			[]string{"victim: shard 1 (home of [load-test-a]), killed once 4 workers", "router:", "fencing: shard 1 zombie",
				"acked-loss audit: all 12", "oracle: load-test-a", "oracle: load-test-b", "over 3 store(s)"}},
		{"campaign", []string{"-tests", "4", "-per-test", "4", "-workers", "12", "-seed", "11", "-drop", "0.05", "-fault", "0.05"},
			[]string{"campaign gates: oracle+acked ✓", "404×"}},
		{"earlystop", []string{"-workers", "16", "-seed", "1", "-budget", "60", "-alpha", "0.05"},
			[]string{"earlystop gates: decisions ✓ (winner=left, p<=0.05), honesty ✓"}},
	}
	for _, row := range rows {
		t.Run(row.scenario, func(t *testing.T) {
			var out strings.Builder
			if err := run(append([]string{"-scenario", row.scenario}, row.args...), &out); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", row.scenario, err, out.String())
			}
			for _, want := range row.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
	if len(rows) != len(scenarios) {
		t.Errorf("%d scenarios, %d miniature rows: every scenario runs under go test", len(scenarios), len(rows))
	}
}

// Clean-network run (no chaos), trusted crowd: no retries needed, all
// statuses in the success set.
func TestRunNoChaos(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-workers", "5",
		"-seed", "7",
		"-drop", "0",
		"-fault", "0",
		"-trusted",
	}, &out)
	if err != nil {
		t.Fatalf("clean soak failed: %v\noutput:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "chaos:") {
		t.Errorf("clean run should not report chaos stats:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-scenario", "mystery"},
		{"-scenario", "overload", "-workers", "6"}, // too few workers to saturate anything
		{"-scenario", "campaign", "-tests", "1"},
		{"-scenario", "earlystop", "-budget", "1000"}, // a budget the fixed-n design fits proves nothing
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// A failing run names its seed and the arguments that replay it.
func TestFailingRunPrintsItsReplay(t *testing.T) {
	var out strings.Builder
	// One retry cannot carry a worker through 60% request loss.
	err := run([]string{"-workers", "4", "-seed", "5", "-drop", "0.6", "-retries", "1"}, &out)
	if err == nil {
		t.Fatalf("a soak no worker can finish passed:\n%s", out.String())
	}
	for _, want := range []string{"workers failed to complete", "seed 5", "replay: kscope-load -workers 4 -seed 5 -drop 0.6 -retries 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}
