// Command perfbench is the repository's benchmark: host wall time per
// simulation run on three workloads, checked against committed result
// fingerprints, with per-layer work counts and CPU shares from a
// separate traced run. See README.md beside this file.
//
//	bash perfbench/run.sh --workload chain4 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (trace 0) or the
// per-layer metrics (trace 1) of BENCHMARK.json. Lines before it print
// every metric by name with its unit, the host stamp and every run's
// fingerprint.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured; it is written beside
// the trace output and read back by -summarize.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Attempted int               `json:"attempted"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds the timings that exist on only some workloads or only
	// with enough samples: printed and recorded, not gated.
	Extra        map[string]metric `json:"extra,omitempty"`
	Fingerprints []verdict         `json:"fingerprints"`
}

func main() {
	var (
		name      = flag.String("workload", "", "chain4, world1000 or daemon_sweep")
		seed      = flag.Int64("seed", 1, "seed every input of the workload derives from")
		seconds   = flag.Float64("seconds", 20, "how long to measure")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out       = flag.String("out", ".bench_build/perfbench", "directory for reports, traces and daemon data")
		recordN   = flag.Int("record", 0, "record the fingerprints of the workload's first N inputs into perfbench/"+fingerprintsFile+" and exit")
		summarize = flag.Bool("summarize", false, "print the median and quartiles of every report under -out as a baseline and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *summarize:
		err = summarizeReports(filepath.Join(*out, "reports"), os.Stdout)
	case *recordN > 0:
		err = recordFingerprints(*name, *seed, *recordN)
	default:
		var ok bool
		ok, err = bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64, dir string, fps fingerprintSet) (workload, error) {
	switch name {
	case "chain4":
		return chain4(seed, fps), nil
	case "world1000":
		return world1000(seed, fps), nil
	case "daemon_sweep":
		return newDaemonSweep(seed, dir, fps), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bench runs one workload and prints its result; ok reports whether
// every operation passed its checks.
func bench(name string, seed int64, dur time.Duration, traced bool, out string) (ok bool, err error) {
	fps, err := committedFingerprints()
	if err != nil {
		return false, err
	}
	data := filepath.Join(out, "data", name)
	if err := os.RemoveAll(data); err != nil {
		return false, err
	}
	defer os.RemoveAll(data)
	w, err := newWorkload(name, seed, data, fps)
	if err != nil {
		return false, err
	}
	defer w.close()
	h := hostStamp()
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)

	calAlloc := calibrationAlloc()
	setup := newPhase(false, false)
	var setupS []float64
	for k := 0; k < w.setups(); k++ {
		d, err := w.setup(setup, k)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d*calRefS/calibrate())
	}

	// A traced run alternates untraced and traced batches: the
	// per-layer numbers come from the traced ones, and the difference
	// between the two kinds is the tracing overhead. Only an untraced
	// run calibrates.
	deadline := time.Now().Add(dur)
	p := newPhase(traced, !traced)
	plain := newPhase(false, false)
	var profs [][]byte
	var batches int
	var rss float64
	for first := true; first || time.Now().Before(deadline); first = false {
		if traced {
			if err := w.batch(plain); err != nil {
				return false, err
			}
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return false, err
			}
			err := w.batch(p)
			pprof.StopCPUProfile()
			if err != nil {
				return false, err
			}
			profs = append(profs, prof.Bytes())
			continue
		}
		if err := w.batch(p); err != nil {
			return false, err
		}
		if batches++; batches == rssBatches {
			rss = peakRSSMB()
		}
	}
	if rss == 0 {
		rss = peakRSSMB()
	}
	mem := readMem()
	if err := w.finish(p); err != nil {
		return false, err
	}
	phases := []*phase{setup, plain, p}

	r := report{Workload: name, Seed: seed, Trace: traced, Host: h, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failures = append(r.Failures, ph.failures...)
		r.Fingerprints = append(r.Fingerprints, ph.verdicts...)
	}
	if traced {
		if err := perLayer(r.Metrics, p, mem, plain, profs); err != nil {
			return false, err
		}
		if err := writeTrace(out, name, seed, h, p.rec, profs); err != nil {
			return false, err
		}
	} else {
		endToEnd(r.Metrics, r.Extra, p, mem, setupS, calAlloc, rss)
	}
	r.Extra["fail_ratio"] = metric{float64(len(r.Failures)) / float64(r.Attempted), "ratio"}
	if err := r.write(filepath.Join(out, "reports")); err != nil {
		return false, err
	}
	r.print()
	return len(r.Failures) == 0, nil
}

// rssBatches is how many measured batches peak_rss_mb covers. A faster
// host finishes more batches in the same seconds, and the daemon keeps
// every job it has served in memory, so the peak over the whole run
// would measure the host's speed.
const rssBatches = 8

// endToEnd fills the end-to-end metrics of an untraced run. Every
// workload reports the gated ones: times in host-normalised seconds
// (see calibrate.go), sizes as measured, both with the calibrations'
// share taken out. The raw wall times, the latency tails and the
// daemon's job and hit latencies go to extra.
func endToEnd(m, extra map[string]metric, p *phase, mem memSnap, setupS []float64, calAlloc uint64, rss float64) {
	cal := median(p.rec.samples("cal"))
	runs := float64(p.runs)
	m["wall_s"] = metric{median(p.rec.samples("batch.norm")), "s"}
	m["run_s.p50"] = metric{median(p.rec.samples("run.norm")), "s"}
	m["setup_s"] = metric{median(setupS), "s"}
	m["alloc_mb_per_run"] = metric{float64(mem.totalAlloc-p.mem0.totalAlloc-uint64(p.calCalls)*calAlloc) / runs / (1 << 20), "MiB"}
	m["peak_rss_mb"] = metric{rss, "MiB"}
	extra["cal_s"] = metric{cal, "s"}
	extra["wall_s.raw"] = metric{median(p.rec.samples("batch")), "s"}
	extra["run_s.p50.raw"] = metric{median(p.rec.samples("run")), "s"}
	extra["cpu_s_per_run.raw"] = metric{(mem.cpuS - p.mem0.cpuS - p.calCPU) / runs, "s"}
	for _, name := range []string{"run", "job", "hit"} {
		xs := p.rec.samples(name)
		if len(xs) == 0 {
			continue
		}
		extra[name+"_s.n"] = metric{float64(len(xs)), "count"}
		if name != "run" {
			extra[name+"_s.p50.raw"] = metric{median(xs), "s"}
		}
		if v, err := tail(xs, 0.9); err == nil {
			extra[name+"_s.p90.raw"] = metric{v, "s"}
		}
	}
}

// perLayer fills the per-layer metrics of a traced run from its traced
// phase p, the untraced phase before it, and the CPU profile.
func perLayer(m map[string]metric, p *phase, mem memSnap, plain *phase, profs [][]byte) error {
	p.counts.metrics(m)
	// The untraced batches ran between the same memory snapshots.
	runs := float64(p.runs + plain.runs)
	m["runtime.gc_cycles"] = metric{float64(mem.numGC-p.mem0.numGC) / runs, "count"}
	m["runtime.gc_pause_s"] = metric{float64(mem.pauseNs-p.mem0.pauseNs) / 1e9 / runs, "s"}
	for _, s := range []string{"topo.build", "muzha.validate", "muzha.run", "jobs.encode", "jobs.submit", "jobs.reopen"} {
		m[s+"_s"] = metric{medianOr0(p.rec.samples(s)), "s"}
	}
	m["jobs.store_bytes"] = metric{medianOr0(p.rec.samples("jobs.store_bytes")), "B"}
	m["jobs.cache_bytes"] = metric{medianOr0(p.rec.samples("jobs.cache_bytes")), "B"}
	m["jobs.hit_ratio"] = metric{medianOr0(p.rec.samples("jobs.hit_ratio")), "ratio"}
	shares, err := cpuShares(profs)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{shares[l], "share"}
	}
	// The overhead compares the workload's per-operation latency, traced
	// against untraced: a job on the daemon, a run elsewhere.
	op := "run"
	if len(p.rec.samples("job")) > 0 {
		op = "job"
	}
	m["trace.overhead_ratio"] = metric{median(p.rec.samples(op))/median(plain.rec.samples(op)) - 1, "ratio"}
	return nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// writeTrace writes the traced phase's spans and its raw CPU profiles,
// one per traced batch.
func writeTrace(out, name string, seed int64, h host, rec *recorder, profs [][]byte) error {
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := rec.writeSpans(base+".spans.jsonl", h); err != nil {
		return err
	}
	for i, prof := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s.batch%d.cpu.pprof", base, i), prof, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.Trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, t)), b, 0o644)
}

// print writes the human-readable lines, then the result line.
func (r *report) print() {
	for _, v := range r.Fingerprints {
		state := "new"
		if v.Committed {
			state = "committed"
		}
		fmt.Printf("fingerprint %s %s %s %s\n", r.Workload, v.Key, v.Fingerprint, state)
	}
	for _, f := range r.Failures {
		fmt.Printf("FAIL %s\n", f)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("metric %s %s = %.6g %s\n", r.Workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Printf("metric %s %s = %.6g %s (not gated)\n", r.Workload, k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	if _, ok := r.Extra["run_s.p90.raw"]; !ok && !r.Trace {
		fmt.Printf("metric %s run_s.p90 refused: fewer than %d of %g samples beyond it\n", r.Workload, minTail, r.Extra["run_s.n"].Value)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Failures) == 0, r.Attempted, len(r.Failures), r.Metrics})
	fmt.Println(string(line))
}
