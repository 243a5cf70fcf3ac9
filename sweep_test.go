package muzha

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"muzha/internal/harness"
	"muzha/internal/sim"
)

// guardConfig is a small healthy scenario for guard tests.
func guardConfig(t *testing.T) Config {
	t.Helper()
	cfg := chainConfig(t, 3, Muzha)
	cfg.Duration = 2 * time.Second
	return cfg
}

// TestRunGuardEventBudget: a real run past its event budget must abort
// cleanly with ErrEventBudget, not return a partial Result.
func TestRunGuardEventBudget(t *testing.T) {
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{MaxEvents: 5000}
	res, err := Run(cfg)
	if res != nil || !errors.Is(err, ErrEventBudget) {
		t.Fatalf("res=%v err=%v, want ErrEventBudget", res, err)
	}
	if Classify(err) != ClassEventBudget {
		t.Fatalf("Classify = %q", Classify(err))
	}
}

// TestRunGuardDeadline: an unmeetable wall-clock deadline aborts with
// ErrDeadline at the first guard check.
func TestRunGuardDeadline(t *testing.T) {
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{WallClock: time.Nanosecond}
	res, err := Run(cfg)
	if res != nil || !errors.Is(err, ErrDeadline) {
		t.Fatalf("res=%v err=%v, want ErrDeadline", res, err)
	}
}

// TestRunGuardsDoNotPerturbResults: a run that completes under generous
// guards must be bit-for-bit identical to the unguarded run.
func TestRunGuardsDoNotPerturbResults(t *testing.T) {
	plain, err := Run(guardConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := guardConfig(t)
	cfg.Guards = RunGuards{WallClock: 5 * time.Minute, MaxEvents: 1 << 40, LivelockWindow: 5_000_000}
	guarded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, guarded) {
		t.Fatalf("guards changed a completing run:\nplain:   %+v\nguarded: %+v", plain, guarded)
	}
}

// TestLivelockDetectorTripsOnZeroDelayCycle is the satellite scenario:
// an event that reschedules itself at zero delay spins the engine
// without advancing virtual time, and the watchdog must catch it.
func TestLivelockDetectorTripsOnZeroDelayCycle(t *testing.T) {
	s := sim.New(1)
	wc := harness.WatchdogConfig{LivelockWindow: 10_000}
	s.SetGuard(wc.Interval(), harness.NewWatchdog(
		func() int64 { return int64(s.Now()) }, s.EventsExecuted, wc))
	var spin func()
	spin = func() { s.Schedule(0, spin) }
	s.Schedule(sim.Millisecond, spin)

	s.Run(sim.Second)
	if !errors.Is(s.GuardErr(), ErrLivelock) {
		t.Fatalf("GuardErr = %v, want ErrLivelock", s.GuardErr())
	}
	if s.Now() != sim.Millisecond {
		t.Fatalf("aborted at t=%v, want the livelock instant 1ms", s.Now())
	}
}

// TestSweepClassifiesLivelockBudgetAndPanic is the acceptance scenario:
// one sweep containing a livelocking run, an event-budget blowup and a
// panicking run completes, finishes the healthy job, and classifies all
// three failures correctly in the SweepError.
func TestSweepClassifiesLivelockBudgetAndPanic(t *testing.T) {
	guardedSim := func(seed int64, wc harness.WatchdogConfig, load func(*sim.Simulator)) func() (any, error) {
		return func() (any, error) {
			s := sim.New(seed)
			s.SetGuard(wc.Interval(), harness.NewWatchdog(
				func() int64 { return int64(s.Now()) }, s.EventsExecuted, wc))
			load(s)
			s.Run(sim.Second)
			if err := s.GuardErr(); err != nil {
				return nil, err
			}
			return s.EventsExecuted(), nil
		}
	}
	healthy := guardConfig(t)
	jobs := []harness.Job{
		guardedSim(1, harness.WatchdogConfig{LivelockWindow: 5_000}, func(s *sim.Simulator) {
			var spin func()
			spin = func() { s.Schedule(0, spin) }
			s.Schedule(0, spin)
		}),
		guardedSim(2, harness.WatchdogConfig{MaxEvents: 10_000}, func(s *sim.Simulator) {
			var tick func()
			tick = func() { s.Schedule(sim.Nanosecond, tick) }
			s.Schedule(0, tick)
		}),
		func() (any, error) { panic("corrupted event heap") },
		func() (any, error) { return Run(healthy) },
	}

	outs := harness.Execute(jobs, 4, nil)
	ros := make([]runOutcome, len(outs))
	for i, want := range []harness.Class{
		harness.ClassLivelock, harness.ClassEventBudget, harness.ClassPanic, harness.ClassOK,
	} {
		if outs[i].Class != want {
			t.Errorf("job %d classified %q, want %q (err=%v)", i, outs[i].Class, want, outs[i].Err)
		}
		ros[i] = runOutcome{Err: outs[i].Err, Class: string(outs[i].Class)}
	}
	// The sweep drivers report through sweepError, so its tally and
	// severity are what a caller sees.
	err := sweepError(ros)
	var se *SweepError
	if !errors.As(err, &se) || se.Total != 4 || se.Failed != 3 ||
		se.Counts[ClassLivelock] != 1 || se.Counts[ClassEventBudget] != 1 || se.Counts[ClassPanic] != 1 {
		t.Fatalf("sweep error misclassified the sweep: %v (%+v)", err, se)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("sweepError = %v, want ErrPanic", err)
	}
}

// TestChaosSweepParallelMatchesSerial is the acceptance determinism
// gate: per-run Results from a parallel sweep must be
// reflect.DeepEqual to the serial sweep's.
func TestChaosSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	opt := ChaosOptions{Seed: 1, Runs: 6, Duration: time.Second}
	serial, err := ChaosSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sweep.Parallel = 4
	parallel, err := ChaosSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Scenario != parallel[i].Scenario {
			t.Fatalf("run %d scenarios differ: %q vs %q", i, serial[i].Scenario, parallel[i].Scenario)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Fatalf("run %d (seed %d) Results differ between serial and parallel sweeps",
				i, serial[i].Seed)
		}
	}
}

// TestChaosSweepRecordsGenerationFailure: a seed whose scenario cannot
// be generated becomes one failed ChaosRun; the rest of the sweep runs.
func TestChaosSweepRecordsGenerationFailure(t *testing.T) {
	orig := chaosScenario
	defer func() { chaosScenario = orig }()
	chaosScenario = func(seed int64, d time.Duration) (Config, string, error) {
		if seed == 2 {
			return Config{}, "", fmt.Errorf("synthetic generation failure for seed %d", seed)
		}
		return orig(seed, d)
	}

	runs, err := ChaosSweep(ChaosOptions{Seed: 1, Runs: 3, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("sweep returned %d runs, want all 3", len(runs))
	}
	if runs[1].Err == nil || !strings.Contains(runs[1].Err.Error(), "synthetic generation failure") {
		t.Fatalf("generation failure not recorded: %+v", runs[1])
	}
	for _, i := range []int{0, 2} {
		if runs[i].Err != nil || runs[i].Result == nil {
			t.Fatalf("healthy seed %d did not run: err=%v", runs[i].Seed, runs[i].Err)
		}
	}
}

// TestChaosSweepJournalResume is the satellite resume test: completed
// seeds are skipped on restart and the merged outcome matches an
// uninterrupted sweep run for run.
func TestChaosSweepJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "chaos.jsonl")
	opt := func(runs int, j string) ChaosOptions {
		return ChaosOptions{Seed: 1, Runs: runs, Duration: time.Second,
			Sweep: SweepOptions{Parallel: 2, Journal: j}}
	}

	full, err := ChaosSweep(opt(5, ""))
	if err != nil {
		t.Fatal(err)
	}
	partial, err := ChaosSweep(opt(3, journal))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range partial {
		if r.Resumed {
			t.Fatalf("first journaled sweep reported seed %d resumed", r.Seed)
		}
	}
	merged, err := ChaosSweep(opt(5, journal))
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range merged {
		if wantResumed := i < 3; r.Resumed != wantResumed {
			t.Errorf("run %d resumed=%v, want %v", i, r.Resumed, wantResumed)
		}
		if (r.Err == nil) != (full[i].Err == nil) || r.NonDeterministic != full[i].NonDeterministic {
			t.Errorf("run %d outcome diverged from uninterrupted sweep: %+v vs %+v", i, r, full[i])
		}
		if !reflect.DeepEqual(r.Result, full[i].Result) {
			t.Errorf("run %d (seed %d) Result diverged across the journal round-trip", i, r.Seed)
		}
	}
}

// TestSweepJournalIgnoresWidth: SweepOptions.Workers is only an
// execution width, so a sweep stored at one width is resumed in full
// by the same sweep at another, with identical rows. Chaos seeds 205
// and 331 generate multi-domain scenarios, where a width-dependent
// engine would show.
func TestSweepJournalIgnoresWidth(t *testing.T) {
	seeds := []int64{205, 331}
	for _, seed := range seeds {
		cfg, _, err := ChaosScenario(seed, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(planDomains(cfg)); n < 2 {
			t.Fatalf("chaos seed %d is not multi-domain (%d domains); the test would prove nothing", seed, n)
		}
	}
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	sweep := func(seed int64, workers int) ChaosRun {
		t.Helper()
		runs, err := ChaosSweep(ChaosOptions{Seed: seed, Runs: 1, Duration: time.Second,
			Sweep: SweepOptions{Journal: journal, Workers: workers}})
		if err != nil || runs[0].Result == nil {
			t.Fatalf("seed %d at workers=%d: %v", seed, workers, err)
		}
		return runs[0]
	}
	for _, seed := range seeds {
		first := sweep(seed, 2)
		again := sweep(seed, 0)
		if first.Resumed || !again.Resumed {
			t.Errorf("seed %d: resumed %v then %v, want false then true", seed, first.Resumed, again.Resumed)
		}
		if !reflect.DeepEqual(again.Result, first.Result) {
			t.Errorf("seed %d: the row resumed at workers=0 differs from the one run at workers=2", seed)
		}
	}
}

// storeLen opens the sweep result store at path and counts its entries.
func storeLen(t *testing.T, path string) int {
	t.Helper()
	c, err := harness.OpenCache(path, harness.CacheLimit{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Len()
}

// TestSweepResumeRerunsFailures: a failure depends on guard budgets and
// host load, not on the scenario, so it is never stored. A sweep whose
// every run failed under a 1 ns deadline leaves nothing to resume, and
// the same sweep unguarded on the same file runs in full and succeeds.
func TestSweepResumeRerunsFailures(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	pairs := [][2]Variant{{Muzha, Muzha}, {NewReno, Muzha}}
	sweep := func(guards RunGuards) ([]FairnessRow, error) {
		return CoexistenceFairness([]int{4}, pairs, 2*time.Second, []int64{1},
			SweepOptions{Journal: store, Guards: guards})
	}

	_, err := sweep(RunGuards{WallClock: time.Nanosecond})
	var se *SweepError
	if !errors.As(err, &se) || se.Failed != len(pairs) || se.Counts[ClassDeadline] != len(pairs) {
		t.Fatalf("guarded sweep: %v, want all %d runs failed by deadline", err, len(pairs))
	}
	if n := storeLen(t, store); n != 0 {
		t.Fatalf("failed sweep stored %d results, want 0", n)
	}

	rows, err := sweep(RunGuards{})
	if err != nil {
		t.Fatalf("unguarded sweep on the same file: %v", err)
	}
	for _, r := range rows {
		if r.Seeds != 1 {
			t.Fatalf("row %v+%v averaged %d seeds, want 1", r.Variants[0], r.Variants[1], r.Seeds)
		}
	}
	if n := storeLen(t, store); n != len(pairs) {
		t.Fatalf("store holds %d results after the rerun, want %d", n, len(pairs))
	}
}

// TestSweepResumeKeysOnConfig: the store key is Config.Hash, so every
// field that shapes a run is in it. A modern grid stored at window 32
// resumes none of its runs for the same grid at window 4, whose rows
// equal a fresh window-4 sweep's.
func TestSweepResumeKeysOnConfig(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	grid := func(window int, path string) []ModernGridRow {
		t.Helper()
		rows, err := ModernComparisonGrid(ModernGridConfig{
			Variants: []Variant{NewReno},
			Worlds:   []string{ModernWorldChain},
			Duration: 3 * time.Second,
			Seeds:    []int64{1},
			Window:   window,
			Sweep:    SweepOptions{Journal: path},
		})
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		return rows
	}

	wide := grid(32, store)
	narrow := grid(4, store)
	fresh := grid(4, "")
	if reflect.DeepEqual(wide, fresh) {
		t.Fatal("windows 32 and 4 give the same rows; the test would prove nothing")
	}
	if !reflect.DeepEqual(narrow, fresh) {
		t.Fatalf("window-4 rows on the window-32 store differ from a fresh sweep:\nstored: %+v\nfresh:  %+v", narrow, fresh)
	}
	if n := storeLen(t, store); n != 2*len(wide) {
		t.Fatalf("store holds %d results, want %d: window-4 runs were resumed from window-32 ones", n, 2*len(wide))
	}
}

// failingWriter rejects every write, simulating a full disk under a
// packet trace.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunSurfacesTraceErrorAlongsideRunError: a run that aborts must
// still report its truncated packet trace, so the trace is never
// mistaken for a complete one.
func TestRunSurfacesTraceErrorAlongsideRunError(t *testing.T) {
	// Half the events of the unguarded run: the budget must trip
	// however many events the engine needs for this scenario.
	plain, err := Run(guardConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := guardConfig(t)
	cfg.PacketTrace = failingWriter{}
	cfg.Guards = RunGuards{MaxEvents: plain.Events / 2}
	res, err := Run(cfg)
	if res != nil {
		t.Fatal("partial Result escaped a failed traced run")
	}
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("run error lost: %v", err)
	}
	if !strings.Contains(err.Error(), "packet trace") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("trace error not surfaced alongside run error: %v", err)
	}
}

// TestThroughputVsHopsParallelMatchesSerial: the experiment driver must
// aggregate identical rows at any worker width.
func TestThroughputVsHopsParallelMatchesSerial(t *testing.T) {
	mk := func(parallel int) ChainSweepConfig {
		return ChainSweepConfig{
			Windows:  []int{4},
			Hops:     []int{2, 3},
			Variants: []Variant{NewReno, Muzha},
			Duration: 2 * time.Second,
			Seeds:    []int64{1, 2},
			Sweep:    SweepOptions{Parallel: parallel},
		}
	}
	serial, err := ThroughputVsHops(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ThroughputVsHops(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("driver rows differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSweepErrorClassification: SweepError exposes the worst class via
// errors.Is and renders per-class counts.
func TestSweepErrorClassification(t *testing.T) {
	outs := []runOutcome{
		{Result: &Result{}},
		{Err: fmt.Errorf("x: %w", harness.ErrLivelock), Class: ClassLivelock},
		{Err: fmt.Errorf("x: %w", harness.ErrEventBudget), Class: ClassEventBudget},
		{Result: &Result{InvariantViolations: 2}},
	}
	err := sweepError(outs)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweepError = %T", err)
	}
	if se.Total != 4 || se.Failed != 3 {
		t.Fatalf("summary %+v", se)
	}
	if se.Counts[ClassLivelock] != 1 || se.Counts[ClassEventBudget] != 1 || se.Counts[ClassInvariant] != 1 {
		t.Fatalf("counts %v", se.Counts)
	}
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("worst class not exposed: %v", err)
	}
	if sweepError([]runOutcome{{Result: &Result{}}}) != nil {
		t.Fatal("healthy sweep produced an error")
	}
}
