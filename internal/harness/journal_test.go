package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Entry{Key: "a", OK: true, Value: json.RawMessage(`{"x":1}`)})
	j.Record(Entry{Key: "b", OK: false, Class: string(ClassLivelock), Err: "stuck"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Skipped() != 0 {
		t.Fatalf("reloaded %d entries, %d skipped", j2.Len(), j2.Skipped())
	}
	a, ok := j2.Lookup("a")
	if !ok || !a.OK || string(a.Value) != `{"x":1}` {
		t.Fatalf("entry a = %+v", a)
	}
	b, ok := j2.Lookup("b")
	if !ok || b.OK || b.Class != string(ClassLivelock) {
		t.Fatalf("entry b = %+v", b)
	}
}

// TestJournalTruncatedLine: a kill mid-write leaves a partial final
// line; the load must skip it and keep the complete entries.
func TestJournalTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	full, _ := json.Marshal(Entry{Key: "done", OK: true, Value: json.RawMessage(`1`)})
	content := append(full, '\n')
	content = append(content, []byte(`{"key":"half","ok":tr`)...) // truncated
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 || j.Skipped() != 1 {
		t.Fatalf("entries=%d skipped=%d", j.Len(), j.Skipped())
	}
	if _, ok := j.Lookup("done"); !ok {
		t.Fatal("complete entry lost")
	}
}

// TestJournalAppendAfterTornTail: the first record written after
// reopening a journal with a torn tail must land on a line of its own.
// A half-written tail is cut away; a complete record that only lost its
// newline is kept and terminated.
func TestJournalAppendAfterTornTail(t *testing.T) {
	full, _ := json.Marshal(Entry{Key: "done", OK: true, Value: json.RawMessage(`1`)})
	for name, tc := range map[string]struct {
		tail    string
		skipped int
		keys    []string
	}{
		"garbage":    {`{"key":"half","ok":tr`, 1, []string{"done", "after", "after2"}},
		"no-newline": {`{"key":"whole","ok":true}`, 0, []string{"done", "whole", "after", "after2"}},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			if err := os.WriteFile(path, append(append(full, '\n'), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if j.Skipped() != tc.skipped {
				t.Fatalf("first open skipped %d, want %d", j.Skipped(), tc.skipped)
			}
			j.Record(Entry{Key: "after", OK: true})
			j.Record(Entry{Key: "after2", OK: true})
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if j2.Skipped() != 0 || j2.Len() != len(tc.keys) {
				t.Fatalf("reopen: %d entries, %d skipped; want %d, 0", j2.Len(), j2.Skipped(), len(tc.keys))
			}
			for _, k := range tc.keys {
				if _, ok := j2.Lookup(k); !ok {
					t.Fatalf("entry %q lost across the reopen", k)
				}
			}
		})
	}
}

// TestExecuteResumesFromJournal: re-executing the same jobs against the
// same journal must not re-run completed work, and failed entries keep
// their classification across the restart.
func TestExecuteResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	ran := map[string]int{}
	mkJobs := func() []Job {
		return []Job{
			{Key: "ok-job", Fn: func() (any, error) { ran["ok-job"]++; return 42, nil }},
			{Key: "bad-job", Fn: func() (any, error) {
				ran["bad-job"]++
				return nil, fmt.Errorf("always: %w", ErrEventBudget)
			}},
		}
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs := Execute(mkJobs(), Options{Workers: 1, Journal: j})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[1].Class != ClassEventBudget {
		t.Fatalf("first pass outcomes %+v", outs)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	outs2 := Execute(mkJobs(), Options{Workers: 1, Journal: j2})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if ran["ok-job"] != 1 || ran["bad-job"] != 1 {
		t.Fatalf("journaled jobs re-ran: %v", ran)
	}
	if !outs2[0].Resumed || !outs2[1].Resumed {
		t.Fatalf("resume not reported: %+v", outs2)
	}
	var v int
	if err := json.Unmarshal(outs2[0].Raw, &v); err != nil || v != 42 {
		t.Fatalf("resumed value %s (%v)", outs2[0].Raw, err)
	}
	if !errors.Is(outs2[1].Err, ErrEventBudget) || outs2[1].Class != ClassEventBudget {
		t.Fatalf("resumed failure lost its class: %+v", outs2[1])
	}
}
