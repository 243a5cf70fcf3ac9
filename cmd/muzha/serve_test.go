package main

import (
	"path/filepath"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"serve", "-bogus"}, nil, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunBadListenAddrCleansUp(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"serve", "-addr", "300.300.300.300:0", "-data", filepath.Join(dir, "d")}, nil, nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
	// The failed start must still have released the journals cleanly: a
	// second start over the same data directory works (or fails on the
	// same bad address, not on the store).
	err2 := run([]string{"serve", "-addr", "300.300.300.300:0", "-data", filepath.Join(dir, "d")}, nil, nil)
	if err2 == nil {
		t.Fatal("bad listen address accepted on retry")
	}
}
