package main

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muzha/internal/jobs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from current output")

// TestOutGolden pins the -out document byte-for-byte. The encoding is
// the daemon's canonical Result form, so any drift here would also
// invalidate every daemon cache entry — regenerate deliberately with
// -update-golden and say why in the commit.
func TestOutGolden(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "result.json")
	var sb strings.Builder
	err := run([]string{"run", "-hops", "2", "-variants", "newreno",
		"-duration", "2s", "-seed", "1", "-out", outFile}, nil, &sb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "single_out.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-out document drifted from golden (%d vs %d bytes); if intended, regenerate with -update-golden",
			len(got), len(want))
	}
}

func TestOutAndRemoteRequireSingle(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "cwnd", "-out", "x.json"},
		{"sweep", "throughput", "-remote", "x"},
		{"chaos", "-remote", "localhost:1"},
		{"chaos", "-out", "x"},
		{"chaos-cov", "-out", "x"},
		{"scenario", "spec.json", "-remote", "x"},
		{"run", "-trace", "t.trace", "-remote", "localhost:1"},
	} {
		var sb strings.Builder
		if err := run(args, nil, &sb); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// TestRemoteMatchesLocal runs the same single runs in-process and
// through a `muzha serve` daemon, expecting identical CSV and an
// identical -out document — the shared canonical encoder is what makes
// local and remote results diffable — for chains and for a -topo
// generator topology alike.
func TestRemoteMatchesLocal(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"hops", []string{"run", "-hops", "2", "-variants", "newreno,muzha", "-duration", "2s", "-seed", "3"}},
		{"topo", []string{"run", "-topo", "islands:2x2x2:1500:1", "-variants", "newreno,muzha", "-duration", "2s", "-seed", "3"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			srv, err := jobs.NewServer(jobs.ServerConfig{DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				srv.Drain(0)
				srv.Close()
			}()

			dir := t.TempDir()
			localOut := filepath.Join(dir, "local.json")
			remoteOut := filepath.Join(dir, "remote.json")
			var localCSV strings.Builder
			if err := run(append(tt.args, "-out", localOut), nil, &localCSV); err != nil {
				t.Fatal(err)
			}
			var remoteCSV strings.Builder
			if err := run(append(tt.args, "-out", remoteOut, "-remote", ts.URL), nil, &remoteCSV); err != nil {
				t.Fatal(err)
			}
			if localCSV.String() != remoteCSV.String() {
				t.Fatalf("CSV differs:\nlocal:\n%s\nremote:\n%s", localCSV.String(), remoteCSV.String())
			}
			lb, err := os.ReadFile(localOut)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := os.ReadFile(remoteOut)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb, rb) {
				t.Fatal("-out documents differ between local and remote execution")
			}
			if st := srv.Snapshot(); st.Completed != 2 {
				t.Fatalf("daemon ran %d jobs, want 2 (one per variant)", st.Completed)
			}
		})
	}
}
