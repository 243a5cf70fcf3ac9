package main

import (
	"strings"
	"testing"
)

func TestQuickReportRenders(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"report", "-quick"}, nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP Muzha reproduction report",
		"## Simulation 2",
		"## Simulation 3A",
		"## Section 4.7",
		"| hops | variant |",
		"- [",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Every claim line must be PASS or FAIL, nothing else.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "- [") {
			if !strings.HasPrefix(line, "- [PASS]") && !strings.HasPrefix(line, "- [FAIL]") {
				t.Fatalf("malformed claim line: %q", line)
			}
		}
	}
}

func TestReportRejectsBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"report", "-nope"}, nil, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
