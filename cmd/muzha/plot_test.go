package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPlotCwndWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"plot", "dynamics", "-out", dir}, nil, &sb); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 4 {
		t.Fatalf("SVG files = %d, want 4 dynamics figures", len(matches))
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatal("output is not SVG")
	}
}

func TestPlotRejectsBadFlag(t *testing.T) {
	if err := run([]string{"plot", "-bogus"}, nil, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	dir := t.TempDir()
	if err := run([]string{"plot", "bogus", "-out", dir}, nil, nil); err == nil {
		t.Fatal("unknown figure family accepted")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*")); len(matches) != 0 {
		t.Fatalf("rejected family still wrote %v", matches)
	}
}
