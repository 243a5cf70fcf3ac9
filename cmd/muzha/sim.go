package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"muzha"
	"muzha/internal/canon"
	"muzha/internal/chaoscov"
	"muzha/internal/jobs"
	"muzha/internal/scenario"
)

// runRecord is one (topology, variant) run in the -out document: Hops
// names a chain, Topo a -topo generator topology. The embedded result
// bytes are exactly what the daemon's result endpoint serves for the
// same config, so local and remote runs diff clean.
type runRecord struct {
	Hops    int             `json:"hops,omitempty"`
	Topo    string          `json:"topo,omitempty"`
	Variant muzha.Variant   `json:"variant"`
	Seed    int64           `json:"seed"`
	Result  json.RawMessage `json:"result"`
}

// cmdRun runs every (topology, variant) pair once and prints one CSV
// row per run. The topologies are the -hops chains, each with one
// end-to-end flow, or the -topo generator topology with its seeded flow
// mix. Each run simulates its independent spatial domains on GOMAXPROCS
// workers; the output is identical at any width.
func cmdRun(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha run", flag.ContinueOnError)
	hops, vs := []int{4}, paperVariants
	listVar(fs, &hops, "hops", "chain hop counts", parseInts)
	listVar(fs, &vs, "variants", "TCP variants", parseVariants)
	var (
		topoSpec  = fs.String("topo", "", "generator topology with its seeded flow mix, in place of -hops: rgeo:NODES:WxH:FLOWS or islands:IxRxC:GAP:FLOWS_PER_ISLAND (e.g. rgeo:1000:3500x3500:128)")
		duration  = fs.Duration("duration", 30*time.Second, "simulated time per run")
		seed      = fs.Int64("seed", 1, "random seed")
		per       = fs.Float64("per", 0, "random packet error rate in [0,1)")
		ring      = fs.Bool("expanding-ring", false, "enable AODV expanding-ring RREQ search (RFC 3561 6.4); recommended for -topo node counts beyond the paper's chains")
		outPath   = fs.String("out", "", "write machine-readable Result JSON to this file (the canonical encoding the daemon serves)")
		remote    = fs.String("remote", "", "muzha serve address, e.g. 127.0.0.1:7370: run on the daemon instead of in-process")
		tracePath = fs.String("trace", "", "write the runs' NS-2-style packet trace to this file (summarize it with muzha trace)")
	)
	guards := guardFlags(fs, 0)
	if _, err := parse(fs, args, 0, 0, ""); err != nil {
		return err
	}
	hopsSet := false
	fs.Visit(func(f *flag.Flag) { hopsSet = hopsSet || f.Name == "hops" })
	var tops []muzha.Topology
	switch {
	case *topoSpec != "" && hopsSet:
		return errors.New("-hops and -topo are exclusive")
	case *topoSpec != "":
		top, err := parseTopo(*topoSpec, *seed)
		if err != nil {
			return err
		}
		tops = append(tops, top)
	default:
		for _, h := range hops {
			top, err := muzha.ChainTopology(h)
			if err != nil {
				return err
			}
			tops = append(tops, top)
		}
	}

	var cli *jobs.Client
	if *remote != "" {
		if *tracePath != "" {
			return errors.New("-trace needs an in-process run; it does not apply with -remote")
		}
		base := *remote
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		cli = &jobs.Client{BaseURL: base, ClientID: "muzha"}
	}
	var trace *bufio.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		trace = bufio.NewWriter(f)
	}

	if *topoSpec != "" {
		fmt.Fprintln(out, "topo,variant,flows,mean_throughput_bps,retransmissions,timeouts,jain_index,events")
	} else {
		fmt.Fprintln(out, "hops,variant,throughput_bps,retransmissions,timeouts,fast_recoveries,jain_index")
	}
	var records []runRecord
	for i, top := range tops {
		for _, v := range vs {
			cfg := muzha.DefaultConfig()
			cfg.Topology = top
			cfg.Duration = *duration
			cfg.Seed = *seed
			cfg.PacketErrorRate = *per
			cfg.ExpandingRing = *ring
			cfg.Guards = guards()
			cfg.Workers = runtime.GOMAXPROCS(0)
			for _, e := range top.FlowEndpoints() {
				cfg.Flows = append(cfg.Flows, muzha.Flow{Src: e[0], Dst: e[1], Variant: v})
			}
			if trace != nil {
				cfg.PacketTrace = trace
			}
			var (
				res *muzha.Result
				raw json.RawMessage
				err error
			)
			if cli != nil {
				res, raw, err = remoteRun(cli, cfg)
			} else if res, err = muzha.Run(cfg); err == nil && *outPath != "" {
				raw, err = jobs.EncodeResult(res)
			}
			if err != nil {
				return err
			}
			rec := runRecord{Variant: v, Seed: *seed, Result: raw}
			if *topoSpec != "" {
				rec.Topo = top.Name()
				fmt.Fprintln(out, topoRow(rec.Topo, v, res))
			} else {
				rec.Hops = hops[i]
				f := res.Flows[0]
				fmt.Fprintf(out, "%d,%s,%.0f,%d,%d,%d,%.3f\n",
					rec.Hops, v, f.ThroughputBps, f.Retransmissions, f.Timeouts, f.FastRecoveries, res.JainIndex)
			}
			records = append(records, rec)
		}
	}
	if trace != nil {
		if err := trace.Flush(); err != nil {
			return err
		}
	}
	if *outPath == "" {
		return nil
	}
	doc, err := canon.JSON(map[string][]runRecord{"runs": records})
	if err != nil {
		return err
	}
	return os.WriteFile(*outPath, append(doc, '\n'), 0o644)
}

// topoRow is the CSV row of one run over a generator topology:
// aggregate transport metrics across its flow mix.
func topoRow(name string, v muzha.Variant, res *muzha.Result) string {
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
	return fmt.Sprintf("%s,%s,%d,%.0f,%d,%d,%.3f,%d",
		name, v, len(res.Flows), mean, rexmit, timeouts, res.JainIndex, res.Events)
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

// remoteRun executes one config on a `muzha serve` daemon and returns
// its Result with the raw canonical Result bytes. Backpressure
// (429/503) is retried after the daemon's Retry-After hint, bounded so
// a dead daemon fails the run instead of hanging it.
func remoteRun(cli *jobs.Client, cfg muzha.Config) (*muzha.Result, json.RawMessage, error) {
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
			return nil, nil, err
		}
		time.Sleep(busy.RetryAfter)
	}
	if !j.State.Terminal() {
		var err error
		if j, err = cli.Wait(ctx, j.ID, 0); err != nil {
			return nil, nil, err
		}
	}
	if j.State != jobs.StateDone {
		return nil, nil, fmt.Errorf("remote job %s is %s [%s]: %s", j.ID, j.State, j.Class, j.Error)
	}
	raw := j.Result
	if len(raw) == 0 {
		var err error
		if raw, err = cli.Result(ctx, j.ID); err != nil {
			return nil, nil, err
		}
	}
	res := new(muzha.Result)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, nil, fmt.Errorf("remote result: %w", err)
	}
	return res, raw, nil
}

// sweepArgs is what one sweep experiment reads from its command line.
type sweepArgs struct {
	hops, windows []int
	variants      []muzha.Variant
	worlds        []string
	duration      time.Duration
	seed          int64
	seeds         int
	sw            muzha.SweepOptions
}

// seedList is -seeds consecutive seeds from -seed up.
func (a sweepArgs) seedList() []int64 {
	out := make([]int64, a.seeds)
	for i := range out {
		out[i] = a.seed + int64(i)
	}
	return out
}

var modernGrid = muzha.DefaultModernGrid()

// sweeps is the one table of sweep experiments. Each entry's args hold
// its defaults: a list it leaves nil, or seeds left 0, is a flag the
// experiment does not take, so `muzha sweep` never registers it.
var sweeps = map[string]struct {
	args sweepArgs
	run  func(io.Writer, sweepArgs) error
}{
	"cwnd":       {sweepArgs{hops: []int{4, 8, 16}, variants: paperVariants, duration: 10 * time.Second}, sweepCwnd},
	"throughput": {sweepArgs{hops: []int{4, 8, 12, 16, 24, 32}, windows: []int{4, 8, 32}, variants: paperVariants, seeds: 3, duration: 30 * time.Second}, sweepThroughput},
	"fairness":   {sweepArgs{hops: []int{4, 6, 8}, seeds: 3, duration: 50 * time.Second}, sweepFairness},
	"dynamics":   {sweepArgs{variants: paperVariants, duration: 30 * time.Second}, sweepDynamics},
	"modern":     {sweepArgs{variants: modernGrid.Variants, worlds: modernGrid.Worlds, seeds: 3, duration: modernGrid.Duration}, sweepModern},
}

// cmdSweep runs one experiment family of the paper as a supervised
// multi-run sweep and prints its CSV. -parallel sets the worker count
// (per-run results are identical at any width), -resume journals
// finished runs to a JSONL file and skips them on restart, and
// -deadline / -max-events bound each run so one stuck scenario cannot
// hang the sweep. Rows already printed stay useful when some runs fail:
// the failure summary surfaces after them, with its class's exit code.
func cmdSweep(args []string, _ io.Reader, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: muzha sweep <cwnd|throughput|fairness|dynamics|modern> [flags]")
	}
	exp, ok := sweeps[args[0]]
	if !ok {
		return fmt.Errorf("unknown experiment %q (have cwnd, throughput, fairness, dynamics, modern)", args[0])
	}
	fs := flag.NewFlagSet("muzha sweep "+args[0], flag.ContinueOnError)
	a := exp.args
	if a.hops != nil {
		listVar(fs, &a.hops, "hops", "hop counts", parseInts)
	}
	if a.windows != nil {
		listVar(fs, &a.windows, "windows", "advertised windows", parseInts)
	}
	if a.variants != nil {
		listVar(fs, &a.variants, "variants", "TCP variants", parseVariants)
	}
	if a.worlds != nil {
		listVar(fs, &a.worlds, "worlds", "worlds", func(s string) ([]string, error) {
			return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }), nil
		})
	}
	if a.seeds > 0 {
		fs.IntVar(&a.seeds, "seeds", a.seeds, "number of seeds to average, from -seed up")
	}
	fs.DurationVar(&a.duration, "duration", a.duration, "simulated time per run")
	fs.Int64Var(&a.seed, "seed", 1, "base random seed")
	fs.IntVar(&a.sw.Parallel, "parallel", runtime.GOMAXPROCS(0), "sweep worker count (per-run results are identical at any width)")
	fs.StringVar(&a.sw.Journal, "resume", "", "JSONL journal path: record finished runs, skip them on restart")
	guards := guardFlags(fs, 0)
	if _, err := parse(fs, args[1:], 0, 0, ""); err != nil {
		return err
	}
	a.sw.Guards = guards()
	return exp.run(out, a)
}

func sweepCwnd(out io.Writer, a sweepArgs) error {
	traces, err := muzha.CwndTraces(a.hops, a.variants, a.duration, a.seed, a.sw)
	if traces == nil && err != nil {
		return err
	}
	fmt.Fprintln(out, "hops,variant,time_s,cwnd")
	for _, tr := range traces {
		for _, s := range muzha.SampleTrace(tr.Trace, 100*time.Millisecond, a.duration) {
			fmt.Fprintf(out, "%d,%s,%.1f,%.2f\n", tr.Hops, tr.Variant, s.At.Seconds(), s.Value)
		}
	}
	return err
}

func sweepThroughput(out io.Writer, a sweepArgs) error {
	rows, err := muzha.ThroughputVsHops(muzha.ChainSweepConfig{
		Windows:  a.windows,
		Hops:     a.hops,
		Variants: a.variants,
		Duration: a.duration,
		Seeds:    a.seedList(),
		Sweep:    a.sw,
	})
	if rows == nil && err != nil {
		return err
	}
	fmt.Fprintln(out, "window,hops,variant,throughput_bps,retransmissions,timeouts")
	for _, r := range rows {
		fmt.Fprintf(out, "%d,%d,%s,%.0f,%.1f,%.1f\n",
			r.Window, r.Hops, r.Variant, r.ThroughputBps, r.Retransmissions, r.Timeouts)
	}
	return err
}

func sweepModern(out io.Writer, a sweepArgs) error {
	grid := modernGrid
	grid.Variants = a.variants
	grid.Worlds = a.worlds
	grid.Duration = a.duration
	grid.Seeds = a.seedList()
	grid.Sweep = a.sw
	rows, err := muzha.ModernComparisonGrid(grid)
	if rows == nil && err != nil {
		return err
	}
	fmt.Fprintln(out, "world,variant,router_assist,throughput_bps,retransmissions,timeouts,seeds")
	for _, r := range rows {
		fmt.Fprintf(out, "%s,%s,%t,%.0f,%.1f,%.1f,%d\n",
			r.World, r.Variant, r.RouterAssist, r.ThroughputBps, r.Retransmissions, r.Timeouts, r.Seeds)
	}
	return err
}

func sweepFairness(out io.Writer, a sweepArgs) error {
	pairs := [][2]muzha.Variant{
		{muzha.NewReno, muzha.Vegas},
		{muzha.NewReno, muzha.Muzha},
		{muzha.Muzha, muzha.Muzha},
	}
	rows, err := muzha.CoexistenceFairness(a.hops, pairs, a.duration, a.seedList(), a.sw)
	if rows == nil && err != nil {
		return err
	}
	fmt.Fprintln(out, "hops,variant1,variant2,throughput1_bps,throughput2_bps,jain_index")
	for _, r := range rows {
		fmt.Fprintf(out, "%d,%s,%s,%.0f,%.0f,%.3f\n",
			r.Hops, r.Variants[0], r.Variants[1],
			r.ThroughputBps[0], r.ThroughputBps[1], r.JainIndex)
	}
	return err
}

func sweepDynamics(out io.Writer, a sweepArgs) error {
	results, err := muzha.ThroughputDynamics(a.variants, a.duration, time.Second, a.seed, a.sw)
	if results == nil && err != nil {
		return err
	}
	fmt.Fprintln(out, "variant,flow,time_s,throughput_bps")
	for _, dr := range results {
		for fi, series := range dr.Series {
			for _, s := range series {
				fmt.Fprintf(out, "%s,%d,%.0f,%.0f\n", dr.Variant, fi+1, s.At.Seconds(), s.Value)
			}
		}
	}
	return err
}

// cmdChaos generates randomized fault-injection scenarios, runs each
// one twice, and fails with the worst class's exit code on any
// invariant violation, panic, guard abort or run-to-run divergence.
func cmdChaos(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha chaos", flag.ContinueOnError)
	opt := muzha.ChaosOptions{Verify: true}
	fs.IntVar(&opt.Runs, "runs", 10, "number of scenarios")
	fs.Int64Var(&opt.Seed, "seed", 1, "base scenario seed")
	fs.DurationVar(&opt.Duration, "duration", 3*time.Second, "simulated time per scenario")
	fs.IntVar(&opt.Sweep.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker count (per-run results are identical at any width)")
	fs.StringVar(&opt.Sweep.Journal, "resume", "", "JSONL journal path: record finished runs, skip them on restart")
	guards := guardFlags(fs, 0)
	if _, err := parse(fs, args, 0, 0, ""); err != nil {
		return err
	}
	opt.Sweep.Guards = guards()
	results, err := muzha.ChaosSweep(opt)
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	var classes []string
	resumed := 0
	for _, r := range results {
		if r.Resumed {
			resumed++
		}
		cls := r.FailureClass()
		if cls != "" {
			counts[cls]++
			classes = append(classes, cls)
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
			tag := ""
			if r.Resumed {
				tag = " (resumed)"
			}
			fmt.Fprintf(out, "ok   seed=%d%s %s: jain=%.3f events=%d faults=%+v\n",
				r.Seed, tag, r.Scenario, r.Result.JainIndex, r.Result.Events, r.Result.Faults)
		}
	}
	if len(classes) > 0 {
		return &exitError{
			code: classExit(classes...),
			err:  fmt.Errorf("chaos: %d of %d scenarios failed %v", len(classes), len(results), counts),
		}
	}
	fmt.Fprintf(out, "chaos: all %d scenarios passed, resumed=%d (deterministic, zero invariant violations)\n",
		len(results), resumed)
	return nil
}

// cmdScenario executes one declarative spec file (see EXPERIMENTS.md
// for the format), reports its outcome and coverage, and verifies the
// spec's expect block. With -shrink, a failing scenario is minimized
// and the self-verifying reproducer written to -out; a healthy run is
// then an error — there is nothing to shrink.
func cmdScenario(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha scenario", flag.ContinueOnError)
	shrink := fs.Bool("shrink", false, "minimize a failing spec and write the reproducer to -out")
	outPath := fs.String("out", "repro.json", "reproducer path for -shrink")
	guards := guardFlags(fs, 0)
	operands, err := parse(fs, args, 1, 1, "<spec.json> ")
	if err != nil {
		return err
	}
	spec, err := scenario.Load(operands[0])
	if err != nil {
		return err
	}
	res, class, runErr := chaoscov.RunSpec(spec, guards())
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

	if *shrink {
		if class == "" {
			return fmt.Errorf("scenario ran healthy; nothing to shrink")
		}
		sr := chaoscov.Shrink(spec, class, guards(), 0, func(f string, a ...any) {
			fmt.Fprintf(out, f+"\n", a...)
		})
		b, err := json.MarshalIndent(sr.Spec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "shrink: class=%s steps=%d runs=%d -> %s (%s)\n",
			sr.Class, sr.Steps, sr.Runs, *outPath, sr.Spec.Summary())
		return nil
	}

	if err := scenario.CheckExpect(spec, res, class); err != nil {
		return &exitError{code: classExit(class), err: err}
	}
	fmt.Fprintln(out, "expect: ok")
	return nil
}

// cmdChaosCov drives the coverage-guided chaos loop: specs are mutated
// from a persistent corpus (-corpus) toward unreached Sometimes
// assertions, and failures are auto-shrunk to minimal reproducers under
// -repro-dir. Like chaos, any scenario failure exits nonzero with the
// worst class's code — but the corpus, coverage history and shrunk
// reproducers are flushed first, so a red run leaves everything needed
// to triage it.
func cmdChaosCov(args []string, _ io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("muzha chaos-cov", flag.ContinueOnError)
	opt := chaoscov.Options{Logf: func(f string, a ...any) { fmt.Fprintf(out, f+"\n", a...) }}
	fs.IntVar(&opt.Runs, "runs", 10, "number of scenarios")
	fs.Int64Var(&opt.Seed, "seed", 1, "base scenario seed")
	fs.DurationVar(&opt.Duration, "duration", 3*time.Second, "simulated time per scenario")
	fs.StringVar(&opt.CorpusPath, "corpus", "", "chaos-corpus JSONL path: persists coverage and resumes on restart")
	fs.StringVar(&opt.ReproDir, "repro-dir", "", "directory for shrunk repro-<class>.json files")
	guards := guardFlags(fs, 0)
	if _, err := parse(fs, args, 0, 0, ""); err != nil {
		return err
	}
	opt.Guards = guards()
	rep, err := chaoscov.Loop(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coverage-history: %v\n", rep.History)
	fmt.Fprintf(out, "coverage: %s\n", strings.Join(rep.Coverage, " "))
	fmt.Fprintf(out, "chaos-cov: %d runs, %d assertions covered, %d corpus entries, %d failures %v, %d repros\n",
		rep.Runs, len(rep.Coverage), rep.CorpusEntries, rep.Failures, rep.Classes, len(rep.Repros))
	if rep.Failures > 0 {
		return &exitError{
			code: classExit(rep.Classes...),
			err:  fmt.Errorf("chaos-cov: %d of %d runs failed %v", rep.Failures, rep.Runs, rep.Classes),
		}
	}
	return nil
}
