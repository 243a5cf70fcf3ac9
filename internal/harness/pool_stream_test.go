package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestScanJSONL(t *testing.T) {
	input := strings.Join([]string{
		`{"a":1}`,
		``, // blank lines are skipped silently
		`{"b":2}`,
		`{"trunc`, // kill-mid-write residue: rejected, counted, not fatal
	}, "\n")
	var got []string
	skipped, _, _, err := scanJSONL(strings.NewReader(input), func(line []byte) bool {
		if !strings.HasSuffix(string(line), "}") {
			return false
		}
		got = append(got, string(line))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if len(got) != 2 || got[0] != `{"a":1}` || got[1] != `{"b":2}` {
		t.Fatalf("lines = %v", got)
	}
}

// collectOutcomes gathers pool callbacks safely across goroutines.
type collectOutcomes struct {
	mu   sync.Mutex
	outs map[string]Outcome
}

func newCollect() *collectOutcomes {
	return &collectOutcomes{outs: make(map[string]Outcome)}
}

func (c *collectOutcomes) done(o Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outs[o.Key] = o
}

func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(3, 8, Options{})
	c := newCollect()
	for i := 0; i < 8; i++ {
		i := i
		job := Job{Key: fmt.Sprintf("job-%d", i), Fn: func() (any, error) { return i * i, nil }}
		if !p.TrySubmit(job, c.done) {
			t.Fatalf("submit %d refused with free backlog", i)
		}
	}
	p.Close()
	if len(c.outs) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(c.outs))
	}
	for i := 0; i < 8; i++ {
		o := c.outs[fmt.Sprintf("job-%d", i)]
		if o.Err != nil || o.Value != i*i {
			t.Fatalf("job %d outcome = %+v", i, o)
		}
	}
}

func TestPoolBackpressureAndClose(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	p := NewPool(1, 1, Options{})
	c := newCollect()

	// One job occupies the worker, one fills the single backlog slot.
	if !p.TrySubmit(Job{Key: "busy", Fn: func() (any, error) {
		close(started)
		<-release
		return "done", nil
	}}, c.done) {
		t.Fatal("first submit refused")
	}
	<-started
	if !p.TrySubmit(Job{Key: "queued", Fn: func() (any, error) { return "ok", nil }}, c.done) {
		t.Fatal("backlog slot refused")
	}
	// The pool is now saturated: this refusal is the daemon's 429 signal.
	if p.TrySubmit(Job{Key: "over", Fn: func() (any, error) { return nil, nil }}, c.done) {
		t.Fatal("saturated pool accepted a job")
	}
	if p.Running() != 1 || p.Queued() != 1 {
		t.Fatalf("running=%d queued=%d, want 1/1", p.Running(), p.Queued())
	}
	close(release)
	p.Close()
	if len(c.outs) != 2 {
		t.Fatalf("outcomes = %d, want 2 (rejected job must never run)", len(c.outs))
	}
	if p.TrySubmit(Job{Key: "late", Fn: func() (any, error) { return nil, nil }}, c.done) {
		t.Fatal("closed pool accepted a job")
	}
}

func TestPoolContainsPanics(t *testing.T) {
	p := NewPool(1, 4, Options{})
	c := newCollect()
	p.TrySubmit(Job{Key: "boom", Fn: func() (any, error) { panic("kaboom") }}, c.done)
	p.TrySubmit(Job{Key: "after", Fn: func() (any, error) { return 7, nil }}, c.done)
	p.Close()
	boom := c.outs["boom"]
	if !errors.Is(boom.Err, ErrPanic) || boom.Class != ClassPanic {
		t.Fatalf("panic outcome = %+v", boom)
	}
	if after := c.outs["after"]; after.Err != nil || after.Value != 7 {
		t.Fatalf("worker died after panic: %+v", after)
	}
}

func TestPoolCanceledJobsAreNotReplayed(t *testing.T) {
	// A canceled run says nothing about the model (the daemon shut down
	// mid-job), so the nondeterminism replay must leave it alone — like
	// wall-clock deadline failures.
	calls := 0
	p := NewPool(1, 1, Options{Replay: true})
	c := newCollect()
	p.TrySubmit(Job{Key: "c", Fn: func() (any, error) {
		calls++
		return nil, fmt.Errorf("aborted: %w", ErrCanceled)
	}}, c.done)
	p.Close()
	o := c.outs["c"]
	if calls != 1 {
		t.Fatalf("canceled job ran %d times, want 1", calls)
	}
	if o.Replayed || o.Class != ClassCanceled {
		t.Fatalf("outcome = %+v, want unreplayed canceled", o)
	}
}

func TestPoolJournalResume(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir + "/pool.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2, 2, Options{Journal: j})
	c := newCollect()
	p.TrySubmit(Job{Key: "x", Fn: func() (any, error) { return 1, nil }}, c.done)
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir + "/pool.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p2 := NewPool(2, 2, Options{Journal: j2})
	c2 := newCollect()
	p2.TrySubmit(Job{Key: "x", Fn: func() (any, error) {
		t.Error("journaled job re-ran")
		return nil, nil
	}}, c2.done)
	p2.Close()
	o := c2.outs["x"]
	if !o.Resumed || string(o.Raw) != "1" {
		t.Fatalf("resume outcome = %+v", o)
	}
}
