// Command muzhasim regenerates the paper's experiments from the command
// line, emitting CSV rows suitable for plotting.
//
// Usage:
//
//	muzhasim -exp throughput                # Figures 5.8-5.13 sweep
//	muzhasim -exp cwnd -hops 4,8,16         # Figures 5.2-5.7 traces
//	muzhasim -exp fairness                  # Figures 5.16-5.18
//	muzhasim -exp dynamics                  # Figures 5.19-5.22
//	muzhasim -exp modern                    # modernized comparison grid
//	muzhasim -exp single -hops 4 -variants muzha -duration 30s
//	muzhasim -chaos -runs 20 -seed 7 -duration 3s
//	muzhasim -chaos-cov -runs 40 -corpus corpus.jsonl -repro-dir repros
//	muzhasim -scenario spec.json
//	muzhasim -scenario failing.json -shrink -out repro.json
//	muzhasim -exp throughput -cpuprofile cpu.out -memprofile mem.out
//
// The -cpuprofile and -memprofile flags wrap the whole run or sweep in
// pprof instrumentation (inspect with `go tool pprof`), so the next
// engine hot spot is measured rather than guessed.
//
// All experiments are deterministic in -seed. Multi-run sweeps execute
// on a supervised worker pool: -parallel sets the worker count (default
// GOMAXPROCS; per-run results are identical at any width), -resume
// journals finished runs to a JSONL file and skips them on restart, and
// -deadline / -max-events bound each run's wall-clock time and event
// count so one stuck scenario cannot hang a sweep.
//
// The -chaos mode generates randomized fault-injection scenarios, runs
// each one twice, and exits nonzero on any failure. The -chaos-cov mode
// replaces blind seed iteration with the coverage-guided loop: specs
// are mutated from a persistent corpus (-corpus) toward unreached
// Sometimes assertions, and failures are auto-shrunk to minimal
// reproducers under -repro-dir.
//
// The -scenario mode runs one declarative scenario spec (see
// EXPERIMENTS.md for the format) and verifies its "expect" block; with
// -shrink, a failing scenario is minimized and the reproducer written
// to -out (default repro.json). Exit codes triage the worst failure
// class without output parsing:
//
//	1  usage or unclassified error
//	2  invariant violation
//	3  nondeterminism (replay divergence)
//	4  deadline, event budget or livelock guard abort
//	5  engine panic
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"muzha"
	"muzha/internal/canon"
	"muzha/internal/chaoscov"
	"muzha/internal/jobs"
	"muzha/internal/scenario"
)

// Exit codes per failure class, for CI triage.
const (
	exitGeneric   = 1
	exitInvariant = 2
	exitNonDet    = 3
	exitGuard     = 4
	exitPanic     = 5
)

// exitError carries a triage exit code alongside the error.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// codeFor maps an error to its triage exit code via the failure
// taxonomy, picking the most severe class in the error's chain.
func codeFor(err error) int {
	switch {
	case errors.Is(err, muzha.ErrPanic):
		return exitPanic
	case errors.Is(err, muzha.ErrDeadline),
		errors.Is(err, muzha.ErrEventBudget),
		errors.Is(err, muzha.ErrLivelock):
		return exitGuard
	case errors.Is(err, muzha.ErrNonDeterministic):
		return exitNonDet
	case errors.Is(err, muzha.ErrInvariant):
		return exitInvariant
	}
	return exitGeneric
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "muzhasim:", err)
		var ee *exitError
		if errors.As(err, &ee) {
			os.Exit(ee.code)
		}
		os.Exit(codeFor(err))
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("muzhasim", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "throughput", "experiment: cwnd | throughput | fairness | dynamics | modern | single")
		hops       = fs.String("hops", "", "comma-separated hop counts (default depends on experiment)")
		windows    = fs.String("windows", "4,8,32", "comma-separated advertised windows (throughput experiment)")
		variants   = fs.String("variants", "newreno,sack,vegas,muzha", "comma-separated TCP variants")
		worlds     = fs.String("worlds", "", "comma-separated modern-grid worlds: chain | rgeo | manhattan (-exp modern; default all)")
		duration   = fs.Duration("duration", 0, "simulated time per run (default depends on experiment)")
		seed       = fs.Int64("seed", 1, "base random seed")
		seeds      = fs.Int("seeds", 3, "number of seeds to average (throughput/fairness)")
		per        = fs.Float64("per", 0, "random packet error rate in [0,1)")
		chaos      = fs.Bool("chaos", false, "run randomized fault-injection scenarios instead of an experiment")
		chaosCov   = fs.Bool("chaos-cov", false, "run the coverage-guided chaos loop instead of blind -chaos iteration")
		corpus     = fs.String("corpus", "", "chaos-corpus JSONL path (-chaos-cov): persists coverage and resumes on restart")
		reproDir   = fs.String("repro-dir", "", "directory for shrunk repro-<class>.json files (-chaos-cov)")
		scenPath   = fs.String("scenario", "", "run one declarative scenario spec file and verify its expect block")
		shrink     = fs.Bool("shrink", false, "with -scenario: minimize a failing spec and write the reproducer to -out")
		runs       = fs.Int("runs", 10, "number of chaos scenarios (-chaos / -chaos-cov)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count (per-run results are identical at any width)")
		runWorkers = fs.Int("run-workers", 0, "execution width inside each run: simulate up to N of its independent spatial domains at once (0 and 1 both mean one at a time; output is identical at any width; a connected topology is one domain)")
		resume     = fs.String("resume", "", "JSONL journal path: record finished runs, skip them on restart")
		deadline   = fs.Duration("deadline", 0, "per-run wall-clock deadline (0 = unbounded)")
		maxEvents  = fs.Uint64("max-events", 0, "per-run simulator event budget (0 = unbounded)")
		cpuprof    = fs.String("cpuprofile", "", "write a pprof CPU profile of the run/sweep to this file")
		memprof    = fs.String("memprofile", "", "write a pprof allocation profile at exit to this file")
		outPath    = fs.String("out", "", "write machine-readable Result JSON to this file (-exp single; same canonical encoding muzhad serves)")
		remote     = fs.String("remote", "", "muzhad address, e.g. 127.0.0.1:7370: run -exp single via the daemon instead of in-process")
		topoSpec   = fs.String("topo", "", "generator topology for -exp single, with its seeded flow mix: rgeo:NODES:WxH:FLOWS or islands:IxRxC:GAP:FLOWS_PER_ISLAND (e.g. rgeo:1000:3500x3500:128)")
		ring       = fs.Bool("expanding-ring", false, "enable AODV expanding-ring RREQ search (RFC 3561 6.4); recommended for -topo node counts beyond the paper's chains")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*outPath != "" || *remote != "") && (*chaos || *chaosCov || *exp != "single") && *scenPath == "" {
		return fmt.Errorf("-out and -remote only apply to -exp single or -scenario")
	}
	if *topoSpec != "" && (*chaos || *chaosCov || *scenPath != "" || *exp != "single") {
		return fmt.Errorf("-topo only applies to -exp single")
	}
	if *worlds != "" && (*chaos || *chaosCov || *scenPath != "" || *exp != "modern") {
		return fmt.Errorf("-worlds only applies to -exp modern")
	}
	if *remote != "" && *scenPath != "" {
		return fmt.Errorf("-remote does not apply to -scenario (submit the spec to muzhad's /v1/scenarios instead)")
	}
	if *shrink && *scenPath == "" {
		return fmt.Errorf("-shrink requires -scenario")
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		path := *memprof
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "muzhasim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention, not noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "muzhasim: memprofile:", err)
			}
		}()
	}
	sw := muzha.SweepOptions{
		Parallel: *parallel,
		Workers:  *runWorkers,
		Journal:  *resume,
		Guards: muzha.RunGuards{
			WallClock: *deadline,
			MaxEvents: *maxEvents,
			// Any zero-delay event cycle is a bug; a generous window
			// keeps the detector clear of legitimate same-instant bursts.
			LivelockWindow: 5_000_000,
		},
	}
	if *scenPath != "" {
		return runScenario(out, *scenPath, *shrink, *outPath, sw.Guards)
	}
	if *chaosCov {
		return runChaosCov(out, *runs, *seed, *duration, *corpus, *reproDir, sw.Guards)
	}
	if *chaos {
		return runChaos(out, *runs, *seed, *duration, sw)
	}

	vs, err := parseVariants(*variants)
	if err != nil {
		return err
	}
	variantsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "variants" {
			variantsSet = true
		}
	})
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}

	switch *exp {
	case "cwnd":
		return runCwnd(out, parseInts(*hops, []int{4, 8, 16}), vs, orDefault(*duration, 10*time.Second), *seed, sw)
	case "throughput":
		return runThroughput(out, parseInts(*windows, []int{4, 8, 32}),
			parseInts(*hops, []int{4, 8, 12, 16, 24, 32}), vs,
			orDefault(*duration, 30*time.Second), seedList, sw)
	case "fairness":
		return runFairness(out, parseInts(*hops, []int{4, 6, 8}), orDefault(*duration, 50*time.Second), seedList, sw)
	case "dynamics":
		return runDynamics(out, vs, orDefault(*duration, 30*time.Second), *seed, sw)
	case "modern":
		mg := muzha.DefaultModernGrid()
		if variantsSet {
			// -variants defaults to the paper's classical set; the
			// modern grid has its own default foursome.
			mg.Variants = vs
		}
		if *worlds != "" {
			var ws []string
			for _, w := range strings.Split(*worlds, ",") {
				if w = strings.TrimSpace(w); w != "" {
					ws = append(ws, w)
				}
			}
			mg.Worlds = ws
		}
		mg.Duration = orDefault(*duration, mg.Duration)
		mg.Seeds = seedList
		mg.Sweep = sw
		return runModern(out, mg)
	case "single":
		if *topoSpec != "" {
			return runTopo(out, *topoSpec, vs, orDefault(*duration, 30*time.Second), *seed, *per, *ring, sw.Guards, *runWorkers, *outPath)
		}
		return runSingle(out, parseInts(*hops, []int{4}), vs, orDefault(*duration, 30*time.Second), *seed, *per, sw.Guards, *runWorkers, *outPath, *remote)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

func parseInts(s string, def []int) []int {
	if s == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

func parseVariants(s string) ([]muzha.Variant, error) {
	known := make(map[muzha.Variant]bool)
	for _, v := range muzha.Variants() {
		known[v] = true
	}
	var out []muzha.Variant
	for _, part := range strings.Split(s, ",") {
		v := muzha.Variant(strings.ToLower(strings.TrimSpace(part)))
		if !known[v] {
			return nil, fmt.Errorf("unknown variant %q (have %v)", part, muzha.Variants())
		}
		out = append(out, v)
	}
	return out, nil
}

// sweepErr converts a driver error into an exit-coded error, keeping
// partial CSV output useful: the rows were already printed by the time
// the summary error surfaces.
func sweepErr(err error) error {
	if err == nil {
		return nil
	}
	return &exitError{code: codeFor(err), err: err}
}

func runCwnd(out io.Writer, hops []int, vs []muzha.Variant, d time.Duration, seed int64, sw muzha.SweepOptions) error {
	traces, terr := muzha.CwndTraces(hops, vs, d, seed, sw)
	if traces == nil && terr != nil {
		return terr
	}
	fmt.Fprintln(out, "hops,variant,time_s,cwnd")
	for _, tr := range traces {
		for _, s := range muzha.SampleTrace(tr.Trace, 100*time.Millisecond, d) {
			fmt.Fprintf(out, "%d,%s,%.1f,%.2f\n", tr.Hops, tr.Variant, s.At.Seconds(), s.Value)
		}
	}
	return sweepErr(terr)
}

func runThroughput(out io.Writer, windows, hops []int, vs []muzha.Variant, d time.Duration, seeds []int64, sw muzha.SweepOptions) error {
	rows, rerr := muzha.ThroughputVsHops(muzha.ChainSweepConfig{
		Windows:  windows,
		Hops:     hops,
		Variants: vs,
		Duration: d,
		Seeds:    seeds,
		Sweep:    sw,
	})
	if rows == nil && rerr != nil {
		return rerr
	}
	fmt.Fprintln(out, "window,hops,variant,throughput_bps,retransmissions,timeouts")
	for _, r := range rows {
		fmt.Fprintf(out, "%d,%d,%s,%.0f,%.1f,%.1f\n",
			r.Window, r.Hops, r.Variant, r.ThroughputBps, r.Retransmissions, r.Timeouts)
	}
	return sweepErr(rerr)
}

func runModern(out io.Writer, grid muzha.ModernGridConfig) error {
	rows, rerr := muzha.ModernComparisonGrid(grid)
	if rows == nil && rerr != nil {
		return rerr
	}
	fmt.Fprintln(out, "world,variant,router_assist,throughput_bps,retransmissions,timeouts,seeds")
	for _, r := range rows {
		fmt.Fprintf(out, "%s,%s,%t,%.0f,%.1f,%.1f,%d\n",
			r.World, r.Variant, r.RouterAssist, r.ThroughputBps, r.Retransmissions, r.Timeouts, r.Seeds)
	}
	return sweepErr(rerr)
}

func runFairness(out io.Writer, hops []int, d time.Duration, seeds []int64, sw muzha.SweepOptions) error {
	pairs := [][2]muzha.Variant{
		{muzha.NewReno, muzha.Vegas},
		{muzha.NewReno, muzha.Muzha},
		{muzha.Muzha, muzha.Muzha},
	}
	rows, rerr := muzha.CoexistenceFairness(hops, pairs, d, seeds, sw)
	if rows == nil && rerr != nil {
		return rerr
	}
	fmt.Fprintln(out, "hops,variant1,variant2,throughput1_bps,throughput2_bps,jain_index")
	for _, r := range rows {
		fmt.Fprintf(out, "%d,%s,%s,%.0f,%.0f,%.3f\n",
			r.Hops, r.Variants[0], r.Variants[1],
			r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex)
	}
	return sweepErr(rerr)
}

func runDynamics(out io.Writer, vs []muzha.Variant, d time.Duration, seed int64, sw muzha.SweepOptions) error {
	results, rerr := muzha.ThroughputDynamics(vs, d, time.Second, seed, sw)
	if results == nil && rerr != nil {
		return rerr
	}
	fmt.Fprintln(out, "variant,flow,time_s,throughput_bps")
	for _, dr := range results {
		for fi, series := range dr.Series {
			for _, s := range series {
				fmt.Fprintf(out, "%s,%d,%.0f,%.0f\n", dr.Variant, fi+1, s.At.Seconds(), s.Value)
			}
		}
	}
	return sweepErr(rerr)
}

func runChaos(out io.Writer, runs int, seed int64, d time.Duration, sw muzha.SweepOptions) error {
	results, err := muzha.ChaosSweep(muzha.ChaosOptions{
		Seed:     seed,
		Runs:     runs,
		Duration: orDefault(d, 3*time.Second),
		Verify:   true,
		Sweep:    sw,
	})
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	resumed := 0
	for _, r := range results {
		if r.Resumed {
			resumed++
		}
		cls := r.FailureClass()
		if cls != "" {
			counts[cls]++
		}
		switch {
		case r.NonDeterministic:
			fmt.Fprintf(out, "FAIL seed=%d %s [%s]: results differ between identical runs\n", r.Seed, r.Scenario, cls)
		case r.Err != nil:
			fmt.Fprintf(out, "FAIL seed=%d %s [%s]: %v\n", r.Seed, r.Scenario, cls, r.Err)
		case cls == muzha.ClassInvariant:
			fmt.Fprintf(out, "FAIL seed=%d %s [%s]: %d invariant violations\n%s",
				r.Seed, r.Scenario, cls, r.Result.InvariantViolations, r.Result.InvariantReport())
		default:
			fmt.Fprintf(out, "ok   seed=%d%s %s: jain=%.3f events=%d faults=%+v\n",
				r.Seed, resumedTag(r.Resumed), r.Scenario, r.Result.JainIndex, r.Result.Events, r.Result.Faults)
		}
	}
	failed := 0
	for _, n := range counts {
		failed += n
	}
	if failed > 0 {
		return &exitError{
			code: worstExitCode(counts),
			err:  fmt.Errorf("chaos: %d of %d scenarios failed %v", failed, len(results), counts),
		}
	}
	fmt.Fprintf(out, "chaos: all %d scenarios passed, resumed=%d (deterministic, zero invariant violations)\n",
		len(results), resumed)
	return nil
}

// runScenario executes one declarative spec file, reports its outcome
// and coverage, and verifies the spec's expect block. With shrink set,
// a failing scenario is minimized and the self-verifying reproducer
// written to outPath (default repro.json); a healthy run is then an
// error — there is nothing to shrink.
func runScenario(out io.Writer, path string, shrink bool, outPath string, guards muzha.RunGuards) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	res, class, runErr := chaoscov.RunSpec(spec, guards)
	switch {
	case class == "":
		fmt.Fprintf(out, "ok   %s: jain=%.3f events=%d faults=%+v\n",
			spec.Summary(), res.JainIndex, res.Events, res.Faults)
	case runErr != nil:
		fmt.Fprintf(out, "FAIL %s [%s]: %v\n", spec.Summary(), class, runErr)
	default:
		fmt.Fprintf(out, "FAIL %s [%s]: %d invariant violations\n%s",
			spec.Summary(), class, res.InvariantViolations, res.InvariantReport())
	}
	if res != nil {
		fmt.Fprintf(out, "coverage: %s\n", strings.Join(res.SometimesCoverage(), " "))
	}

	if shrink {
		if class == "" {
			return fmt.Errorf("scenario ran healthy; nothing to shrink")
		}
		if outPath == "" {
			outPath = "repro.json"
		}
		sr := chaoscov.Shrink(spec, class, guards, 0, func(f string, a ...any) {
			fmt.Fprintf(out, f+"\n", a...)
		})
		b, err := json.MarshalIndent(sr.Spec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "shrink: class=%s steps=%d runs=%d -> %s (%s)\n",
			sr.Class, sr.Steps, sr.Runs, outPath, sr.Spec.Summary())
		return nil
	}

	if err := scenario.CheckExpect(spec, res, class); err != nil {
		code := exitGeneric
		if class != "" {
			code = worstExitCode(map[string]int{class: 1})
		}
		return &exitError{code: code, err: err}
	}
	fmt.Fprintln(out, "expect: ok")
	return nil
}

// runChaosCov drives the coverage-guided chaos loop. Like -chaos, any
// scenario failure exits nonzero with the worst class's code — but the
// corpus, coverage history and shrunk reproducers are flushed first,
// so a red run leaves everything needed to triage it.
func runChaosCov(out io.Writer, runs int, seed int64, d time.Duration, corpus, reproDir string, guards muzha.RunGuards) error {
	rep, err := chaoscov.Loop(chaoscov.Options{
		Seed:       seed,
		Runs:       runs,
		Duration:   orDefault(d, 3*time.Second),
		CorpusPath: corpus,
		ReproDir:   reproDir,
		Guards:     guards,
		Logf: func(f string, a ...any) {
			fmt.Fprintf(out, f+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coverage-history: %v\n", rep.History)
	fmt.Fprintf(out, "coverage: %s\n", strings.Join(rep.Coverage, " "))
	fmt.Fprintf(out, "chaos-cov: %d runs, %d assertions covered, %d corpus entries, %d failures %v, %d repros\n",
		rep.Runs, len(rep.Coverage), rep.CorpusEntries, rep.Failures, rep.Classes, len(rep.Repros))
	if rep.Failures > 0 {
		counts := make(map[string]int)
		for _, c := range rep.Classes {
			counts[c]++
		}
		return &exitError{
			code: worstExitCode(counts),
			err:  fmt.Errorf("chaos-cov: %d of %d runs failed %v", rep.Failures, rep.Runs, rep.Classes),
		}
	}
	return nil
}

func resumedTag(resumed bool) string {
	if resumed {
		return " (resumed)"
	}
	return ""
}

// worstExitCode picks the exit code of the most severe class present.
func worstExitCode(counts map[string]int) int {
	switch {
	case counts[muzha.ClassPanic] > 0:
		return exitPanic
	case counts[muzha.ClassLivelock] > 0,
		counts[muzha.ClassEventBudget] > 0,
		counts[muzha.ClassDeadline] > 0:
		return exitGuard
	case counts[muzha.ClassNonDeterministic] > 0:
		return exitNonDet
	case counts[muzha.ClassInvariant] > 0:
		return exitInvariant
	}
	return exitGeneric
}

// singleRecord is one (topology, variant) run in the -out document. The
// embedded result bytes are exactly what muzhad's result endpoint would
// serve for the same config, so local and remote runs diff clean.
type singleRecord struct {
	Hops    int             `json:"hops"`
	Variant muzha.Variant   `json:"variant"`
	Seed    int64           `json:"seed"`
	Result  json.RawMessage `json:"result"`
}

func runSingle(out io.Writer, hops []int, vs []muzha.Variant, d time.Duration, seed int64, per float64, guards muzha.RunGuards, workers int, outPath, remote string) error {
	var cli *jobs.Client
	if remote != "" {
		if !strings.Contains(remote, "://") {
			remote = "http://" + remote
		}
		cli = &jobs.Client{BaseURL: remote, ClientID: "muzhasim"}
	}
	var records []singleRecord
	fmt.Fprintln(out, "hops,variant,throughput_bps,retransmissions,timeouts,fast_recoveries,jain_index")
	for _, h := range hops {
		top, err := muzha.ChainTopology(h)
		if err != nil {
			return err
		}
		for _, v := range vs {
			cfg := muzha.DefaultConfig()
			cfg.Topology = top
			cfg.Duration = d
			cfg.Seed = seed
			cfg.PacketErrorRate = per
			cfg.Guards = guards
			cfg.Workers = workers
			cfg.Flows = []muzha.Flow{{Src: 0, Dst: h, Variant: v}}
			var (
				res *muzha.Result
				raw json.RawMessage
			)
			if cli != nil {
				if raw, err = remoteRun(cli, cfg); err != nil {
					return err
				}
				res = new(muzha.Result)
				if err := json.Unmarshal(raw, res); err != nil {
					return fmt.Errorf("remote result: %w", err)
				}
			} else {
				if res, err = muzha.Run(cfg); err != nil {
					return err
				}
				if outPath != "" {
					if raw, err = jobs.EncodeResult(res); err != nil {
						return err
					}
				}
			}
			f := res.Flows[0]
			fmt.Fprintf(out, "%d,%s,%.0f,%d,%d,%d,%.3f\n",
				h, v, f.ThroughputBps, f.Retransmissions, f.Timeouts, f.FastRecoveries, res.JainIndex)
			records = append(records, singleRecord{Hops: h, Variant: v, Seed: seed, Result: raw})
		}
	}
	if outPath != "" {
		doc, err := canon.JSON(map[string][]singleRecord{"runs": records})
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseTopo builds a generator topology from the compact -topo syntax:
// rgeo:NODES:WxH:FLOWS (random geometric, farthest-pair flows) or
// islands:IxRxC:GAP:FLOWS_PER_ISLAND (I lattice islands of RxC nodes,
// GAP meters apart, seeded intra-island flows).
func parseTopo(spec string, seed int64) (muzha.Topology, error) {
	bad := func() (muzha.Topology, error) {
		return muzha.Topology{}, fmt.Errorf("bad -topo %q: want rgeo:NODES:WxH:FLOWS or islands:IxRxC:GAP:FLOWS_PER_ISLAND", spec)
	}
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "rgeo":
		if len(parts) != 4 {
			return bad()
		}
		n, err1 := strconv.Atoi(parts[1])
		dims := strings.Split(parts[2], "x")
		flows, err2 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || len(dims) != 2 {
			return bad()
		}
		w, err3 := strconv.ParseFloat(dims[0], 64)
		h, err4 := strconv.ParseFloat(dims[1], 64)
		if err3 != nil || err4 != nil {
			return bad()
		}
		return muzha.RandomGeometricTopology(n, w, h, flows, seed)
	case "islands":
		if len(parts) != 4 {
			return bad()
		}
		dims := strings.Split(parts[1], "x")
		if len(dims) != 3 {
			return bad()
		}
		islands, err1 := strconv.Atoi(dims[0])
		rows, err2 := strconv.Atoi(dims[1])
		cols, err3 := strconv.Atoi(dims[2])
		gap, err4 := strconv.ParseFloat(parts[2], 64)
		per, err5 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return bad()
		}
		return muzha.GridIslandsFlowsTopology(islands, rows, cols, gap, per, seed)
	default:
		return bad()
	}
}

// topoRecord is one (topology, variant) run in the -topo -out document.
type topoRecord struct {
	Topo    string          `json:"topo"`
	Variant muzha.Variant   `json:"variant"`
	Seed    int64           `json:"seed"`
	Result  json.RawMessage `json:"result"`
}

// runTopo runs each variant over one generator topology using the
// topology's seeded flow mix, reporting aggregate transport metrics.
func runTopo(out io.Writer, spec string, vs []muzha.Variant, d time.Duration, seed int64, per float64, ring bool, guards muzha.RunGuards, workers int, outPath string) error {
	top, err := parseTopo(spec, seed)
	if err != nil {
		return err
	}
	fe := top.FlowEndpoints()
	var records []topoRecord
	fmt.Fprintln(out, "topo,variant,flows,mean_throughput_bps,retransmissions,timeouts,jain_index,events")
	for _, v := range vs {
		cfg := muzha.DefaultConfig()
		cfg.Topology = top
		cfg.Duration = d
		cfg.Seed = seed
		cfg.PacketErrorRate = per
		cfg.ExpandingRing = ring
		cfg.Guards = guards
		cfg.Workers = workers
		for _, e := range fe {
			cfg.Flows = append(cfg.Flows, muzha.Flow{Src: e[0], Dst: e[1], Variant: v})
		}
		res, err := muzha.Run(cfg)
		if err != nil {
			return err
		}
		var mean float64
		var rexmit, timeouts uint64
		for _, f := range res.Flows {
			mean += f.ThroughputBps
			rexmit += f.Retransmissions
			timeouts += f.Timeouts
		}
		if len(res.Flows) > 0 {
			mean /= float64(len(res.Flows))
		}
		fmt.Fprintf(out, "%s,%s,%d,%.0f,%d,%d,%.3f,%d\n",
			top.Name(), v, len(res.Flows), mean, rexmit, timeouts, res.JainIndex, res.Events)
		if outPath != "" {
			raw, err := jobs.EncodeResult(res)
			if err != nil {
				return err
			}
			records = append(records, topoRecord{Topo: top.Name(), Variant: v, Seed: seed, Result: raw})
		}
	}
	if outPath != "" {
		doc, err := canon.JSON(map[string][]topoRecord{"runs": records})
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// remoteRun executes one config on a muzhad daemon and returns the raw
// canonical Result bytes. Backpressure (429/503) is retried after the
// daemon's Retry-After hint, bounded so a dead daemon fails the run
// instead of hanging it.
func remoteRun(cli *jobs.Client, cfg muzha.Config) (json.RawMessage, error) {
	ctx := context.Background()
	var j jobs.Job
	for attempt := 0; ; attempt++ {
		var err error
		j, err = cli.Submit(ctx, cfg)
		if err == nil {
			break
		}
		var busy *jobs.BusyError
		if !errors.As(err, &busy) || attempt >= 30 {
			return nil, err
		}
		time.Sleep(busy.RetryAfter)
	}
	if !j.State.Terminal() {
		var err error
		if j, err = cli.Wait(ctx, j.ID, 0); err != nil {
			return nil, err
		}
	}
	if j.State != jobs.StateDone {
		return nil, fmt.Errorf("remote job %s is %s [%s]: %s", j.ID, j.State, j.Class, j.Error)
	}
	if len(j.Result) > 0 {
		return j.Result, nil
	}
	return cli.Result(ctx, j.ID)
}
