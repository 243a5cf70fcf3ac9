package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one unit of sweep work. Fn must be re-runnable: the pool
// invokes it again to classify a failure as deterministic or divergent.
type Job struct {
	// Key uniquely and stably identifies the job across sweep restarts;
	// it is the journal key.
	Key string
	// Fn performs the run. It is called from a worker goroutine and must
	// not share mutable state with other jobs.
	Fn func() (any, error)
}

// Outcome is one job's terminal state, in job order.
type Outcome struct {
	Key string
	// Value is Fn's result for jobs that ran; nil for resumed jobs
	// (decode Raw instead) and failures.
	Value any
	// Raw is the journaled result for resumed jobs.
	Raw json.RawMessage
	// Err is the classified failure, nil on success.
	Err error
	// Class is Classify(Err).
	Class Class
	// Resumed is set when the outcome was satisfied from the journal
	// without running Fn.
	Resumed bool
	// Replayed is set when the failure replay ran.
	Replayed bool
}

// Options configures Execute.
type Options struct {
	// Workers is the concurrent worker count; <= 0 uses GOMAXPROCS.
	Workers int
	// Journal, when non-nil, records outcomes as they complete and
	// satisfies jobs it already holds without re-running them.
	Journal *Journal
	// Replay re-runs each failed job once: an identical failure class
	// keeps its classification, a different outcome reclassifies the job
	// ErrNonDeterministic. Wall-clock deadline failures are exempt —
	// they depend on host load, not the model.
	Replay bool
}

// Execute runs the jobs on a supervised worker pool and returns one
// Outcome per job, in job order. The pool never aborts early: a failed,
// panicking or stuck job is classified and the remaining jobs still
// run. Each Fn executes single-threaded within its worker, so per-run
// results are independent of the worker count.
func Execute(jobs []Job, opt Options) []Outcome {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	outs := make([]Outcome, len(jobs))
	if len(jobs) == 0 {
		return outs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i] = runJob(jobs[i], opt)
			}
		}()
	}
	wg.Wait()
	return outs
}

// runJob executes (or resumes) one job with panic containment, failure
// replay and journaling.
func runJob(job Job, opt Options) Outcome {
	out := Outcome{Key: job.Key}
	if opt.Journal != nil {
		if e, ok := opt.Journal.Lookup(job.Key); ok && (!e.OK || len(e.Value) > 0) {
			out.Resumed = true
			out.Raw = e.Value
			out.Class = Class(e.Class)
			if !e.OK {
				out.Err = resumeError(out.Class, e.Err)
			}
			return out
		}
	}

	v, err := safeCall(job.Fn)
	if err != nil && opt.Replay && Classify(err) != ClassDeadline && Classify(err) != ClassCanceled {
		out.Replayed = true
		_, err2 := safeCall(job.Fn)
		if Classify(err2) != Classify(err) {
			err = fmt.Errorf("%w: first attempt failed (%v) but replay %s",
				ErrNonDeterministic, err, describeReplay(err2))
		}
	}
	out.Value, out.Err = v, err
	out.Class = Classify(err)
	if err != nil {
		out.Value = nil
	}

	if opt.Journal != nil {
		e := Entry{Key: job.Key, OK: err == nil, Class: string(out.Class)}
		if err != nil {
			e.Err = err.Error()
		} else if b, merr := json.Marshal(v); merr == nil {
			e.Value = b
		}
		opt.Journal.Record(e)
	}
	return out
}

func describeReplay(err error) string {
	if err == nil {
		return "succeeded"
	}
	return fmt.Sprintf("failed differently (%v)", err)
}

// Pool is the streaming counterpart of Execute for long-running
// services: jobs arrive one at a time over a bounded backlog, a fixed
// set of workers runs them with the same panic containment, replay
// classification and journaling as Execute, and each outcome is handed
// to its submit-time callback as it completes. The backlog bound is the
// daemon's admission control — TrySubmit refusing is the signal to push
// back (HTTP 429) instead of growing memory without limit.
type Pool struct {
	opt     Options
	items   chan poolItem
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	running atomic.Int64
}

type poolItem struct {
	job  Job
	done func(Outcome)
}

// NewPool starts workers goroutines (<= 0 uses GOMAXPROCS) consuming a
// backlog of at most backlog queued jobs.
func NewPool(workers, backlog int, opt Options) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backlog < 0 {
		backlog = 0
	}
	p := &Pool{opt: opt, items: make(chan poolItem, backlog)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for it := range p.items {
				p.running.Add(1)
				out := runJob(it.job, p.opt)
				p.running.Add(-1)
				if it.done != nil {
					it.done(out)
				}
			}
		}()
	}
	return p
}

// TrySubmit enqueues the job without blocking. It returns false when
// the backlog is full or the pool is closed; the job was not accepted
// and done will never be called.
func (p *Pool) TrySubmit(job Job, done func(Outcome)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.items <- poolItem{job: job, done: done}:
		return true
	default:
		return false
	}
}

// Running reports how many jobs are executing right now (not queued).
func (p *Pool) Running() int { return int(p.running.Load()) }

// Queued reports how many accepted jobs are waiting for a worker.
func (p *Pool) Queued() int { return len(p.items) }

// Close stops intake and blocks until every queued and running job has
// finished and delivered its outcome. A service that must bound the
// wait cancels its in-flight jobs (closing their Cancel channels)
// before or during Close.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.items)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// safeCall invokes fn, converting a panic into an ErrPanic-classed
// error so one broken job cannot kill its worker goroutine.
func safeCall(fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return fn()
}
