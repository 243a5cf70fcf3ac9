package muzha

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"muzha/internal/harness"
)

// SweepOptions supervises a multi-run sweep: worker parallelism, a
// resumable result store, and per-run guards. The zero value reproduces
// the historical serial, unguarded, unstored behaviour.
type SweepOptions struct {
	// Parallel is the worker count; <= 1 runs serially, and any value
	// yields bit-for-bit identical per-run Results — each run is
	// single-threaded, workers only change wall-clock time.
	Parallel int
	// Journal is the JSONL result store (harness.Cache) recording each
	// successful run as it completes, keyed by Config.Hash. A restarted
	// sweep pointed at the same file skips every run whose config it
	// holds and merges the stored results, so a killed sweep loses only
	// its in-flight work; failed runs are not stored and run again. The
	// daemon's cache.jsonl has the same format. Empty disables the store.
	Journal string
	// Guards bounds every run in the sweep (applied only to runs whose
	// Config carries no guards of its own).
	Guards RunGuards
	// Workers is the execution width inside each run (Config.Workers)
	// whose Config does not set its own. Independent of Parallel, which
	// schedules whole runs. Like Parallel it changes only wall-clock
	// time, so Config.Hash, the store key, ignores it.
	Workers int
}

// SweepError summarizes a supervised sweep's failures. The sweep always
// finishes — failed runs are classified, not fatal — and drivers return
// the completed rows alongside a *SweepError describing what was lost.
// errors.Is against ErrPanic, ErrLivelock, ErrEventBudget, ErrDeadline,
// ErrNonDeterministic or ErrInvariant matches the most severe class
// present (and the first failure's own chain).
type SweepError struct {
	// Total and Failed count runs; Resumed counts store hits.
	Total, Failed, Resumed int
	// Counts maps failure-class name (see Classify) to run count.
	Counts map[string]int
	// First is the first failed run's error, for context.
	First error
	// worst is the most severe class's sentinel.
	worst error
}

// Error renders e.g. "sweep: 3 of 12 runs failed [panic:1 livelock:2]; first: ...".
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d of %d runs failed [", e.Failed, e.Total)
	classes := []string{ClassPanic, ClassLivelock, ClassEventBudget, ClassDeadline,
		ClassNonDeterministic, ClassInvariant, ClassError}
	first := true
	for _, c := range classes {
		if n := e.Counts[c]; n > 0 {
			if !first {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", c, n)
			first = false
		}
	}
	b.WriteByte(']')
	if e.First != nil {
		fmt.Fprintf(&b, "; first: %v", e.First)
	}
	return b.String()
}

// Unwrap exposes the worst class's sentinel and the first failure.
func (e *SweepError) Unwrap() []error {
	var out []error
	if e.worst != nil {
		out = append(out, e.worst)
	}
	if e.First != nil {
		out = append(out, e.First)
	}
	return out
}

// runOutcome is one run's terminal state.
type runOutcome struct {
	Result  *Result
	Err     error
	Class   string
	Resumed bool
}

// runPool executes the configs on the supervised worker pool: panics
// are contained and failures replayed once to classify deterministic
// versus divergent. With opt.Journal set, the result store at that path
// (harness.Cache, keyed by Config.Hash) satisfies every config it
// already holds, and each run that succeeds is stored the moment it
// finishes, so a killed sweep loses only its in-flight runs. Failures
// are never stored: a resumed sweep runs them again. With verify set,
// each run executes twice and any Result divergence is
// ErrNonDeterministic. The returned error is only for harness plumbing
// (an unopenable or unwritable store); per-run failures live in the
// outcomes.
func runPool(cfgs []Config, opt SweepOptions, verify bool) ([]runOutcome, error) {
	var store *harness.Cache
	if opt.Journal != "" {
		c, err := harness.OpenCache(opt.Journal, harness.CacheLimit{})
		if err != nil {
			return nil, err
		}
		store = c
	}

	outs := make([]runOutcome, len(cfgs))
	hashes := make([]string, len(cfgs))
	var jobs []harness.Job
	var idx []int // jobs[k] runs cfgs[idx[k]]
	for i, cfg := range cfgs {
		if store != nil {
			h, err := cfg.Hash()
			if err != nil {
				store.Close()
				return nil, err
			}
			hashes[i] = h
			// A stored value that does not decode runs again; its fresh
			// result replaces it.
			var r Result
			if raw, ok := store.Get(h); ok && json.Unmarshal(raw, &r) == nil {
				outs[i] = runOutcome{Result: &r, Resumed: true}
				continue
			}
		}
		if !cfg.Guards.enabled() {
			cfg.Guards = opt.Guards
		}
		if cfg.Workers == 0 {
			cfg.Workers = opt.Workers
		}
		jobs = append(jobs, func() (any, error) {
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			if verify {
				again, err := Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("muzha: verify replay seed %d: %w", cfg.Seed, err)
				}
				if !reflect.DeepEqual(res, again) {
					return nil, fmt.Errorf("muzha: seed %d: %w: results differ between identical runs",
						cfg.Seed, harness.ErrNonDeterministic)
				}
			}
			return res, nil
		})
		idx = append(idx, i)
	}

	var put func(int, harness.Outcome)
	if store != nil {
		put = func(k int, o harness.Outcome) {
			if o.Err != nil {
				return
			}
			// A Result that cannot be encoded is not stored; the next
			// resume runs it again.
			if b, err := json.Marshal(o.Value); err == nil {
				store.Put(hashes[idx[k]], b)
			}
		}
	}
	for k, o := range harness.Execute(jobs, max(opt.Parallel, 1), put) {
		ro := runOutcome{Err: o.Err, Class: string(o.Class)}
		if o.Err == nil {
			ro.Result = o.Value.(*Result)
		}
		outs[idx[k]] = ro
	}

	if store != nil {
		if err := store.Close(); err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// sweepError folds the outcomes' failures into a *SweepError, or nil
// when every run succeeded. A non-nil Result with Always-invariant
// violations counts as a ClassInvariant failure — the run completed,
// but its model state is untrustworthy.
func sweepError(outs []runOutcome) error {
	se := &SweepError{Total: len(outs), Counts: make(map[string]int)}
	classCounts := make(map[harness.Class]int)
	for _, o := range outs {
		if o.Resumed {
			se.Resumed++
		}
		cls := o.Class
		var oerr error
		switch {
		case o.Err != nil:
			oerr = o.Err
		case o.Result != nil && o.Result.InvariantViolations > 0:
			cls = ClassInvariant
			oerr = fmt.Errorf("muzha: %w: %d violations", ErrInvariant, o.Result.InvariantViolations)
		default:
			continue
		}
		se.Failed++
		se.Counts[cls]++
		classCounts[harness.Class(cls)]++
		if se.First == nil {
			se.First = oerr
		}
	}
	if se.Failed == 0 {
		return nil
	}
	if worst := harness.WorstOf(classCounts); worst != harness.ClassError {
		se.worst = harness.Sentinel(worst)
	}
	return se
}

// sweepOpt unpacks the optional trailing SweepOptions of the experiment
// drivers.
func sweepOpt(opts []SweepOptions) SweepOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return SweepOptions{}
}
