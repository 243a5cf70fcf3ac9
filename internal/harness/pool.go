package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one unit of work. It must be re-runnable: the pool invokes it
// again to classify a failure as deterministic or divergent. It is
// called from a worker goroutine and must not share mutable state with
// other jobs.
type Job func() (any, error)

// Outcome is one job's terminal state.
type Outcome struct {
	// Value is the job's result; nil on failure.
	Value any
	// Err is the classified failure, nil on success.
	Err error
	// Class is Classify(Err).
	Class Class
	// Replayed is set when the failure replay ran.
	Replayed bool
}

// Execute runs the jobs on a Pool of the given width (<= 0 uses
// GOMAXPROCS) and returns one Outcome per job, in job order; done, when
// non-nil, also receives each outcome with its job index as soon as the
// job finishes, from the worker goroutine. The pool never aborts early:
// a failed, panicking or stuck job is classified and the remaining jobs
// still run. Each job executes single-threaded within its worker, so
// per-run results are independent of the worker count.
func Execute(jobs []Job, workers int, done func(int, Outcome)) []Outcome {
	outs := make([]Outcome, len(jobs))
	p := NewPool(min(workers, len(jobs)), len(jobs))
	for i, job := range jobs {
		p.TrySubmit(job, func(o Outcome) {
			outs[i] = o
			if done != nil {
				done(i, o)
			}
		})
	}
	p.Close()
	return outs
}

// runJob executes one job with panic containment and failure replay:
// a failed job runs once more, an identical failure class keeps its
// classification and a different outcome reclassifies the job
// ErrNonDeterministic. Wall-clock deadline and cancel failures are
// exempt — they depend on host load or an operator, not the model.
func runJob(job Job) Outcome {
	v, err := safeCall(job)
	if err == nil {
		return Outcome{Value: v}
	}
	out := Outcome{Err: err}
	if c := Classify(err); c != ClassDeadline && c != ClassCanceled {
		out.Replayed = true
		if _, err2 := safeCall(job); Classify(err2) != c {
			out.Err = fmt.Errorf("%w: first attempt failed (%v) but replay %s",
				ErrNonDeterministic, err, describeReplay(err2))
		}
	}
	out.Class = Classify(out.Err)
	return out
}

func describeReplay(err error) string {
	if err == nil {
		return "succeeded"
	}
	return fmt.Sprintf("failed differently (%v)", err)
}

// Pool is the one worker loop of the program: jobs arrive one at a
// time over a bounded backlog, a fixed set of workers runs them with
// panic containment and replay classification (see runJob), and each
// outcome is handed to its submit-time callback as it completes.
// Execute drives it for a batch; the daemon submits to it directly. The
// backlog bound is the daemon's admission control — TrySubmit refusing
// is the signal to push back (HTTP 429) instead of growing memory
// without limit.
type Pool struct {
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
func NewPool(workers, backlog int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backlog < 0 {
		backlog = 0
	}
	p := &Pool{items: make(chan poolItem, backlog)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for it := range p.items {
				p.running.Add(1)
				out := runJob(it.job)
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
