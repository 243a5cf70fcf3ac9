package harness

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// collectOutcomes gathers pool callbacks safely across goroutines.
type collectOutcomes struct {
	mu   sync.Mutex
	outs map[string]Outcome
}

func newCollect() *collectOutcomes {
	return &collectOutcomes{outs: make(map[string]Outcome)}
}

// done returns the submit callback that files an outcome under key.
func (c *collectOutcomes) done(key string) func(Outcome) {
	return func(o Outcome) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.outs[key] = o
	}
}

func TestPoolRunsAllJobs(t *testing.T) {
	p := NewPool(3, 8)
	c := newCollect()
	for i := 0; i < 8; i++ {
		i := i
		job := func() (any, error) { return i * i, nil }
		if !p.TrySubmit(job, c.done(fmt.Sprintf("job-%d", i))) {
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
	p := NewPool(1, 1)
	c := newCollect()

	// One job occupies the worker, one fills the single backlog slot.
	if !p.TrySubmit(func() (any, error) {
		close(started)
		<-release
		return "done", nil
	}, c.done("busy")) {
		t.Fatal("first submit refused")
	}
	<-started
	if !p.TrySubmit(func() (any, error) { return "ok", nil }, c.done("queued")) {
		t.Fatal("backlog slot refused")
	}
	// The pool is now saturated: this refusal is the daemon's 429 signal.
	if p.TrySubmit(func() (any, error) { return nil, nil }, c.done("over")) {
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
	if p.TrySubmit(func() (any, error) { return nil, nil }, c.done("late")) {
		t.Fatal("closed pool accepted a job")
	}
}

func TestPoolContainsPanics(t *testing.T) {
	p := NewPool(1, 4)
	c := newCollect()
	p.TrySubmit(func() (any, error) { panic("kaboom") }, c.done("boom"))
	p.TrySubmit(func() (any, error) { return 7, nil }, c.done("after"))
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
	p := NewPool(1, 1)
	c := newCollect()
	p.TrySubmit(func() (any, error) {
		calls++
		return nil, fmt.Errorf("aborted: %w", ErrCanceled)
	}, c.done("c"))
	p.Close()
	o := c.outs["c"]
	if calls != 1 {
		t.Fatalf("canceled job ran %d times, want 1", calls)
	}
	if o.Replayed || o.Class != ClassCanceled {
		t.Fatalf("outcome = %+v, want unreplayed canceled", o)
	}
}
