package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleTrace = `s 0.000000 _0_ data 1 f1 seq=0 n0->n4 1500B
f 0.010000 _1_ data 1 f1 seq=0 n0->n4 1500B
f 0.020000 _2_ data 1 f1 seq=0 n0->n4 1500B
m 0.020001 _2_ data 1 f1 seq=0 n0->n4 1500B
r 0.030000 _4_ data 1 f1 seq=0 n0->n4 1500B
s 0.031000 _4_ data 2 f1 ack=1460 n4->n0 40B
d 0.040000 _1_ data 3 f1 seq=1460 n0->n4 1500B [queue overflow]
d 0.050000 _2_ routing 9 n2->* 44B [no route after retries]
`

func TestParseLine(t *testing.T) {
	e, err := parseLine("d 1.234567 _2_ data 42 f7 seq=1460 n0->n4 1500B [queue overflow]")
	if err != nil {
		t.Fatal(err)
	}
	if e.op != "d" || e.node != 2 || e.flow != 7 || e.reason != "queue overflow" {
		t.Fatalf("parsed = %+v", e)
	}
	if e.t != 1.234567 || e.kind != "data" {
		t.Fatalf("parsed = %+v", e)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, bad := range []string{"x", "s notatime _0_ data 1 x", "s 1.0 _x_ data 1 x"} {
		if _, err := parseLine(bad); err == nil {
			t.Fatalf("bad line accepted: %q", bad)
		}
	}
}

func TestAnalyzeSummary(t *testing.T) {
	var sb strings.Builder
	if err := analyze(strings.NewReader(sampleTrace), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"8 events",
		"send=2 recv=1 forward=2 drop=2 mark=1",
		"queue overflow",
		"no route after retries",
		"node 1",
		"flow 1",
		"segments=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	var sb strings.Builder
	if err := analyze(strings.NewReader(""), &sb); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestEndToEndGenerateAndAnalyze(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.trace")
	var csv strings.Builder
	if err := run([]string{"run", "-hops", "4", "-variants", "muzha", "-duration", "5s", "-trace", tracePath}, nil, &csv); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("run -trace wrote nothing")
	}
	var summary strings.Builder
	if err := run([]string{"trace", "-"}, bytes.NewReader(trace), &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "per-node activity") {
		t.Fatalf("analysis incomplete:\n%s", summary.String())
	}
	var fromFile strings.Builder
	if err := run([]string{"trace", tracePath}, nil, &fromFile); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != summary.String() {
		t.Fatal("file and stdin analyses differ")
	}
}

func TestUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"trace"}, strings.NewReader(""), &sb); err == nil {
		t.Fatal("missing argument accepted")
	}
	if err := run([]string{"trace", "/does/not/exist"}, strings.NewReader(""), &sb); err == nil {
		t.Fatal("missing file accepted")
	}
}
