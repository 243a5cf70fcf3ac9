package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzha"
)

func TestRunSingleCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"run", "-hops", "2", "-variants", "newreno", "-duration", "2s"}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), sb.String())
	}
	if lines[0] != "hops,variant,throughput_bps,retransmissions,timeouts,fast_recoveries,jain_index" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,newreno,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestRunCwndCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"sweep", "cwnd", "-hops", "2", "-variants", "muzha", "-duration", "1s"}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header + 11 samples (0.0s .. 1.0s at 100 ms steps).
	if len(lines) != 12 {
		t.Fatalf("lines = %d, want 12", len(lines))
	}
	if !strings.HasPrefix(lines[1], "2,muzha,0.0,") {
		t.Fatalf("first sample = %q", lines[1])
	}
}

func TestRunDynamicsCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"sweep", "dynamics", "-variants", "newreno", "-duration", "3s"}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "variant,flow,time_s,throughput_bps\n") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "newreno,1,") {
		t.Fatal("flow 1 rows missing")
	}
}

func TestRunThroughputCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"sweep", "throughput", "-hops", "2", "-windows", "4",
		"-variants", "newreno,muzha", "-duration", "2s", "-seeds", "1",
	}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows", len(lines))
	}
}

func TestRunFairnessCSV(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"sweep", "fairness", "-hops", "4", "-duration", "2s", "-seeds", "1"}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 pairings
		t.Fatalf("lines = %d, want 4", len(lines))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	const undefined = "flag provided but not defined"
	for _, tt := range []struct {
		args    []string
		wantErr string // substring of the error
	}{
		{nil, "missing command"},
		{[]string{"nope"}, "unknown command"},
		{[]string{"sweep"}, "usage: muzha sweep"},
		{[]string{"sweep", "nope"}, "unknown experiment"},
		{[]string{"run", "-variants", "compound"}, "unknown variant"},
		{[]string{"run", "-bogus-flag"}, undefined},
		{[]string{"run", "-hops", "x"}, `bad entry "x"`},
		{[]string{"run", "-hops", "4,x,8"}, `bad entry "x"`},
		{[]string{"sweep", "throughput", "-windows", "-3"}, `bad entry "-3"`},
		{[]string{"run", "-hops", "4", "-topo", "rgeo:10:500x500:1"}, "exclusive"},
		{[]string{"run", "extra-operand"}, "usage: muzha run"},
		{[]string{"scenario"}, "usage: muzha scenario"},
		{[]string{"trace", "a", "b"}, "usage: muzha trace"},
		// A flag of another mode is a usage error, not silently ignored.
		{[]string{"sweep", "throughput", "-worlds", "chain"}, undefined},
		{[]string{"run", "-corpus", "x"}, undefined},
		{[]string{"run", "-resume", "x"}, undefined},
		{[]string{"run", "-windows", "4"}, undefined},
		{[]string{"run", "-seeds", "2"}, undefined},
		{[]string{"run", "-parallel", "2"}, undefined},
		{[]string{"sweep", "cwnd", "-seeds", "2"}, undefined},
		{[]string{"sweep", "cwnd", "-windows", "4"}, undefined},
		{[]string{"sweep", "fairness", "-variants", "muzha"}, undefined},
		{[]string{"sweep", "dynamics", "-hops", "4"}, undefined},
		{[]string{"sweep", "modern", "-topo", "rgeo:10:500x500:1"}, undefined},
		{[]string{"chaos", "-hops", "4"}, undefined},
		{[]string{"chaos-cov", "-parallel", "2"}, undefined},
		{[]string{"chaos-cov", "-resume", "x"}, undefined},
		{[]string{"scenario", "spec.json", "-parallel", "2"}, undefined},
		{[]string{"report", "-seed", "2"}, undefined},
		{[]string{"trace", "-generate"}, undefined},
		{[]string{"serve", "-hops", "4"}, undefined},
	} {
		var sb strings.Builder
		err := run(tt.args, nil, &sb)
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("run(%q) = %v, want an error containing %q", tt.args, err, tt.wantErr)
		}
	}
}

func TestParseInts(t *testing.T) {
	tests := []struct {
		give    string
		want    []int
		wantErr string // substring naming the bad entry; "" = no error
	}{
		{"4,8", []int{4, 8}, ""},
		{" 4 , 8 ", []int{4, 8}, ""},
		{"", nil, `""`}, // a flag's default applies only when the flag is absent
		{"x,-3", nil, `"x"`},
		{"4,x,8", nil, `"x"`},
		{"x", nil, `"x"`},
		{"-3", nil, `"-3"`},
		{"4,0", nil, `"0"`},
		{"4,,8", nil, `""`},
	}
	for _, tt := range tests {
		got, err := parseInts(tt.give)
		if tt.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("parseInts(%q) = %v, %v; want an error naming %s", tt.give, got, err, tt.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseInts(%q): %v", tt.give, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseInts(%q) = %v, want %v", tt.give, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseInts(%q) = %v, want %v", tt.give, got, tt.want)
			}
		}
	}
}

func TestParseVariants(t *testing.T) {
	vs, err := parseVariants("NewReno, muzha")
	if err != nil || len(vs) != 2 {
		t.Fatalf("parseVariants: %v %v", vs, err)
	}
	if _, err := parseVariants("newreno,bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestChaosGuardFailureExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"chaos", "-runs", "2", "-duration", "1s", "-max-events", "500"}, nil, &sb)
	if err == nil {
		t.Fatal("event-budget blowout passed")
	}
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitGuard {
		t.Fatalf("err = %v (%T), want exitError code %d", err, err, exitGuard)
	}
	if !strings.Contains(sb.String(), "[event-budget]") {
		t.Fatalf("failure class missing from report:\n%s", sb.String())
	}
}

func TestChaosDeadlineExitCode(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"chaos", "-runs", "1", "-duration", "1s", "-deadline", "1ns"}, nil, &sb)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != exitGuard {
		t.Fatalf("err = %v, want exitError code %d", err, exitGuard)
	}
}

func TestChaosResumeSkipsCompletedRuns(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	var first strings.Builder
	if err := run([]string{"chaos", "-runs", "2", "-seed", "1", "-duration", "1s", "-resume", journal}, nil, &first); err != nil {
		t.Fatalf("first sweep: %v\n%s", err, first.String())
	}
	var second strings.Builder
	if err := run([]string{"chaos", "-runs", "4", "-seed", "1", "-duration", "1s", "-resume", journal}, nil, &second); err != nil {
		t.Fatalf("resumed sweep: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "resumed=2") {
		t.Fatalf("completed seeds not resumed:\n%s", second.String())
	}
}

func TestCodeForTaxonomy(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x: %w", muzha.ErrPanic), exitPanic},
		{fmt.Errorf("x: %w", muzha.ErrDeadline), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrEventBudget), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrLivelock), exitGuard},
		{fmt.Errorf("x: %w", muzha.ErrNonDeterministic), exitNonDet},
		{fmt.Errorf("x: %w", muzha.ErrInvariant), exitInvariant},
		{errors.New("plain"), exitGeneric},
	}
	for _, tt := range tests {
		if got := codeFor(tt.err); got != tt.want {
			t.Errorf("codeFor(%v) = %d, want %d", tt.err, got, tt.want)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var sb strings.Builder
	err := run([]string{"-cpuprofile", cpu, "-memprofile", mem,
		"run", "-hops", "2", "-variants", "newreno", "-duration", "1s"}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
