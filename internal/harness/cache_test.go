package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The result store persists as a JSONL journal, one {"key","value"}
// line per Put. These tests pin that file: its round trip, its torn-tail
// handling, the lines older binaries wrote, and resume through Execute.
// The capacity policy (LRU caps, compaction) is tested in package jobs.

func openCache(t *testing.T, path string) *Cache {
	t.Helper()
	c, err := OpenCache(path, CacheLimit{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	c := openCache(t, path)
	c.Put("a", json.RawMessage(`{"x":1}`))
	c.Put("b", json.RawMessage(`[2]`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := openCache(t, path)
	defer r.Close()
	if r.Len() != 2 || r.Skipped() != 0 {
		t.Fatalf("reloaded %d entries, %d skipped", r.Len(), r.Skipped())
	}
	for key, want := range map[string]string{"a": `{"x":1}`, "b": `[2]`} {
		if got, ok := r.Get(key); !ok || string(got) != want {
			t.Fatalf("entry %s = %s (found %v), want %s", key, got, ok, want)
		}
	}
}

// TestJournalTruncatedLine: a kill mid-write leaves a partial final
// line; the load must skip it and keep the complete entries.
func TestJournalTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	content := `{"key":"done","value":1}` + "\n" + `{"key":"half","val`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, path)
	defer c.Close()
	if c.Len() != 1 || c.Skipped() != 1 {
		t.Fatalf("entries=%d skipped=%d", c.Len(), c.Skipped())
	}
	if _, ok := c.Get("done"); !ok {
		t.Fatal("complete entry lost")
	}
}

// TestJournalAppendAfterTornTail: the first Put after reopening a file
// with a torn tail must land on a line of its own. A half-written tail
// is cut away; a complete line that only lost its newline is kept and
// terminated.
func TestJournalAppendAfterTornTail(t *testing.T) {
	full := `{"key":"done","value":1}` + "\n"
	for name, tc := range map[string]struct {
		tail    string
		skipped int
		keys    []string
	}{
		"garbage":    {`{"key":"half","val`, 1, []string{"done", "after", "after2"}},
		"no-newline": {`{"key":"whole","value":2}`, 0, []string{"done", "whole", "after", "after2"}},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			if err := os.WriteFile(path, []byte(full+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			c := openCache(t, path)
			if c.Skipped() != tc.skipped {
				t.Fatalf("first open skipped %d, want %d", c.Skipped(), tc.skipped)
			}
			c.Put("after", json.RawMessage(`3`))
			c.Put("after2", json.RawMessage(`4`))
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			r := openCache(t, path)
			defer r.Close()
			if r.Skipped() != 0 || r.Len() != len(tc.keys) {
				t.Fatalf("reopen: %d entries, %d skipped; want %d, 0", r.Len(), r.Skipped(), len(tc.keys))
			}
			for _, k := range tc.keys {
				if _, ok := r.Get(k); !ok {
					t.Fatalf("entry %q lost across the reopen", k)
				}
			}
		})
	}
}

// TestScanJSONL: the load skips blank lines silently and counts a
// kill-mid-write residue line as skipped, never fatal.
func TestScanJSONL(t *testing.T) {
	input := strings.Join([]string{
		`{"key":"a","value":1}`,
		``, // blank lines are skipped silently
		`{"key":"b","value":2}`,
		`{"trunc`, // kill-mid-write residue: rejected, counted, not fatal
	}, "\n")
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, path)
	defer c.Close()
	if c.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", c.Skipped())
	}
	_, okA := c.Get("a")
	_, okB := c.Get("b")
	if c.Len() != 2 || !okA || !okB {
		t.Fatalf("loaded %d entries (a=%v b=%v), want a and b", c.Len(), okA, okB)
	}
}

// TestCacheLoadsOlderLines: files written before sweeps and the daemon
// shared this store carry "ok":true on every result line, and sweep
// files also carry failure lines without a value. The results load; the
// failures are dropped, so they are run again rather than replayed.
func TestCacheLoadsOlderLines(t *testing.T) {
	input := strings.Join([]string{
		`{"key":"h1","ok":true,"value":{"x":1}}`,
		`{"key":"h2","ok":false,"class":"deadline","err":"wall-clock deadline exceeded"}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, path)
	got, ok := c.Get("h1")
	if !ok || string(got) != `{"x":1}` {
		t.Fatalf("older result line = %s (found %v), want {\"x\":1}", got, ok)
	}
	if _, ok := c.Get("h2"); ok || c.Len() != 1 {
		t.Fatalf("older failure line loaded: len=%d", c.Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The dropped failure line was dead weight: the open compacted it
	// away and rewrote the result in the current format.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"key":"h1","value":{"x":1}}` + "\n"; string(b) != want {
		t.Fatalf("compacted file = %q, want %q", b, want)
	}
}

// TestExecuteResumesFromJournal: a batch that stores each success as it
// finishes and looks every job up before the next run re-runs only its
// failures, and the stored value is the one the first pass computed.
func TestExecuteResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ran := map[string]int{}
	keys := []string{"ok-job", "bad-job"}
	fns := map[string]Job{
		"ok-job": func() (any, error) { ran["ok-job"]++; return 42, nil },
		"bad-job": func() (any, error) {
			ran["bad-job"]++
			return nil, fmt.Errorf("always: %w", ErrEventBudget)
		},
	}
	pass := func() (resumed int, outs []Outcome) {
		c := openCache(t, path)
		var jobs []Job
		var idx []string
		for _, k := range keys {
			if _, ok := c.Get(k); ok {
				resumed++
				continue
			}
			jobs = append(jobs, fns[k])
			idx = append(idx, k)
		}
		outs = Execute(jobs, 1, func(i int, o Outcome) {
			if o.Err == nil {
				b, _ := json.Marshal(o.Value)
				c.Put(idx[i], b)
			}
		})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return resumed, outs
	}

	resumed, outs := pass()
	if resumed != 0 || outs[0].Err != nil || outs[1].Class != ClassEventBudget {
		t.Fatalf("first pass: resumed %d, outcomes %+v", resumed, outs)
	}
	resumed, outs = pass()
	if resumed != 1 || len(outs) != 1 || outs[0].Class != ClassEventBudget {
		t.Fatalf("second pass: resumed %d, outcomes %+v; want the failure alone re-run", resumed, outs)
	}
	// Each pass runs the failing job twice: once, and once more to replay.
	if ran["ok-job"] != 1 || ran["bad-job"] != 4 {
		t.Fatalf("run counts %v, want ok-job 1, bad-job 4", ran)
	}
	c := openCache(t, path)
	defer c.Close()
	if v, ok := c.Get("ok-job"); !ok || string(v) != "42" {
		t.Fatalf("stored value %s (found %v), want 42", v, ok)
	}
}
