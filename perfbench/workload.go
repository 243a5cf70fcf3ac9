package main

import (
	"fmt"
	"sync"
	"time"

	"muzha"
	"muzha/internal/jobs"
)

// workload is one set of inputs the benchmark drives the program with.
// Every input derives from the seed the workload was built with.
type workload interface {
	// setups is how many independent set-ups a run performs; setup_s is
	// their median.
	setups() int
	// setup performs the k-th set-up and returns its duration in
	// seconds; the last one leaves the workload ready.
	setup(p *phase, k int) (float64, error)
	// batch runs the next batch of inputs into p; wall_s is the median
	// batch makespan.
	batch(p *phase) error
	// finish runs the untimed end-of-run checks into p.
	finish(p *phase) error
	// close stops everything the workload started.
	close()
}

// localSetups is how many set-ups a local workload performs, each with
// a warm-up run; the first measured input follows them.
const localSetups = 9

// phase is one measurement window: its span recorder, the layer counts
// of the runs it executed, and its checks.
type phase struct {
	rec  *recorder
	mem0 memSnap
	// calibrated phases time a calibration after every run; see
	// calibrate.go.
	calibrated bool

	mu        sync.Mutex
	counts    layerCounts
	runs      int     // simulation runs executed, for per-run allocation
	calCalls  int     // calibration loops run, whose allocations ...
	calCPU    float64 // ... and CPU seconds every metric leaves out
	attempted int
	failures  []string
	verdicts  []verdict
}

func newPhase(keep, calibrated bool) *phase {
	return &phase{rec: newRecorder(keep), mem0: readMem(), calibrated: calibrated}
}

// outcome records one attempted operation; a non-nil err fails it.
func (p *phase) outcome(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failures = append(p.failures, err.Error())
	}
}

// ran counts one simulation run executed in the process.
func (p *phase) ran() {
	p.mu.Lock()
	p.runs++
	p.mu.Unlock()
}

// ranHere counts a run the benchmark timed itself at d seconds and, on
// a calibrated phase, times a calibration right after it and returns
// that calibration's seconds.
func (p *phase) ranHere(d float64) float64 {
	p.ran()
	if !p.calibrated {
		return 0
	}
	c := p.calibrate()
	p.rec.add("cal", c)
	p.rec.add("run.norm", d*calRefS/c)
	return c
}

// calibrate runs the calibration loop and returns its seconds,
// counting its allocations and CPU time for the metrics to leave out.
func (p *phase) calibrate() float64 {
	cpu0 := processCPUSeconds()
	d := calibrate()
	cpu := processCPUSeconds() - cpu0
	p.mu.Lock()
	p.calCalls++
	p.calCPU += cpu
	p.mu.Unlock()
	return d
}

// checked records a simulated run: its fingerprint verdict and layer
// counts. The returned error is the run's failure, if any.
func (p *phase) checked(fs fingerprintSet, workload, key string, mss int, res *muzha.Result, encoded int) error {
	v, err := fs.check(workload, key, res)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.verdicts = append(p.verdicts, v)
	p.counts.add(res, mss, encoded)
	return err
}

// simulate runs cfg and encodes the result the way every persisted
// result is encoded, as spans muzha.run and jobs.encode under a span
// "run" that covers both, and returns the run span's seconds too.
func simulate(rec *recorder, tr uint64, cfg muzha.Config) (*muzha.Result, []byte, float64, error) {
	root := rec.begin("run", tr, nil)
	sp := rec.begin("muzha.run", tr, root)
	res, err := muzha.Run(cfg)
	sp.end()
	if err != nil {
		return nil, nil, root.end(), err
	}
	sp = rec.begin("jobs.encode", tr, root)
	b, err := jobs.EncodeResult(res)
	sp.end()
	return res, b, root.end(), err
}

// item is one generated simulation input.
type item struct {
	key string
	cfg muzha.Config
}

// localWorkload runs one simulation at a time in process, each on the
// next input of its generator: chain4 and world1000.
type localWorkload struct {
	name string
	seed int64
	runs int // runs per batch
	// gen builds input i of the seed's stream, spanning the topology
	// construction it does.
	gen func(rec *recorder, tr uint64, seed int64, i int) (item, error)
	// widthCheck reruns the first measured input at Workers=1 and
	// requires the Workers=2 fingerprint.
	widthCheck bool
	fps        fingerprintSet

	next    int
	firstFP string // fingerprint of the first measured input
}

// build generates input i and validates it, as spans topo.build (inside
// gen) and muzha.validate.
func (w *localWorkload) build(rec *recorder, tr uint64, i int) (item, error) {
	it, err := w.gen(rec, tr, w.seed, i)
	if err != nil {
		return it, err
	}
	sp := rec.begin("muzha.validate", tr, nil)
	err = it.cfg.Validate()
	sp.end()
	return it, err
}

// one runs input i and checks it. It returns the seconds from the
// start of building the input to the end of encoding its result, and
// those of the calibration after it.
func (w *localWorkload) one(p *phase, i int) (took, cal float64, err error) {
	start := time.Now()
	tr := p.rec.newTrace()
	it, err := w.build(p.rec, tr, i)
	if err != nil {
		return 0, 0, fmt.Errorf("%s input %d: %w", w.name, i, err)
	}
	res, b, d, err := simulate(p.rec, tr, it.cfg)
	took = time.Since(start).Seconds()
	if err != nil {
		return took, 0, fmt.Errorf("%s %s: %w", w.name, it.key, err)
	}
	cal = p.ranHere(d)
	if i == localSetups {
		w.firstFP = fingerprint(res)
	}
	return took, cal, p.checked(w.fps, w.name, it.key, it.cfg.MSS, res, len(b))
}

func (w *localWorkload) setups() int { return localSetups }

// setup builds and validates input k and runs it once untimed as a
// sample: construction, validation and a warm-up run together. A run
// that fails its checks counts as failed; it does not stop the run.
func (w *localWorkload) setup(p *phase, k int) (float64, error) {
	took, _, err := w.one(p, k)
	p.outcome(err)
	w.next = k + 1
	return took, nil
}

// batch runs the next w.runs inputs; its makespan leaves out the
// calibrations between them and is normalised by their median.
func (w *localWorkload) batch(p *phase) error {
	var wall float64
	var cals []float64
	for j := 0; j < w.runs; j++ {
		took, c, err := w.one(p, w.next)
		p.outcome(err)
		wall += took
		cals = append(cals, c)
		w.next++
	}
	p.rec.add("batch", wall)
	if p.calibrated {
		p.rec.add("batch.norm", wall*calRefS/median(cals))
	}
	return nil
}

func (w *localWorkload) finish(p *phase) error {
	if !w.widthCheck {
		return nil
	}
	it, err := w.build(newRecorder(false), 0, localSetups)
	if err != nil {
		return err
	}
	it.cfg.Workers = 1
	res, err := muzha.Run(it.cfg)
	if err == nil && fingerprint(res) != w.firstFP {
		err = fmt.Errorf("%s %s: fingerprint %s at Workers=1, %s at Workers=2", w.name, it.key, fingerprint(res), w.firstFP)
	}
	p.outcome(err)
	return nil
}

func (w *localWorkload) close() {}

// chain4 is the paper's 4-hop chain: one Muzha flow at window 8 for
// 30 s of simulated time on the classic engine, one run per seed.
func chain4(seed int64, fps fingerprintSet) *localWorkload {
	return &localWorkload{
		name: "chain4", seed: seed, runs: 8, fps: fps,
		gen: func(rec *recorder, tr uint64, seed int64, i int) (item, error) {
			s := seed + int64(i)
			sp := rec.begin("topo.build", tr, nil)
			top, err := muzha.ChainTopology(4)
			sp.end()
			cfg := muzha.DefaultConfig()
			cfg.Topology = top
			cfg.Duration = 30 * time.Second
			cfg.Window = 8
			cfg.Seed = s
			cfg.Flows = []muzha.Flow{{Src: 0, Dst: 4, Variant: muzha.Muzha}}
			return item{key: fmt.Sprintf("seed=%d", s), cfg: cfg}, err
		},
	}
}

// world1000 is 16 islands of 8x8 grid nodes (1024 nodes) carrying 128
// Muzha flows with expanding-ring AODV for 3 s of simulated time on the
// decomposed engine at Workers=2; the topology's flow endpoints come
// from the same seed as the run.
func world1000(seed int64, fps fingerprintSet) *localWorkload {
	return &localWorkload{
		name: "world1000", seed: seed, runs: 2, fps: fps, widthCheck: true,
		gen: func(rec *recorder, tr uint64, seed int64, i int) (item, error) {
			s := seed + int64(i)
			sp := rec.begin("topo.build", tr, nil)
			top, err := muzha.GridIslandsFlowsTopology(16, 8, 8, 1500, 8, s)
			sp.end()
			if err != nil {
				return item{}, err
			}
			cfg := muzha.DefaultConfig()
			cfg.Topology = top
			cfg.Duration = 3 * time.Second
			cfg.Window = 8
			cfg.ExpandingRing = true
			cfg.Workers = 2
			cfg.Seed = s
			for _, fe := range top.FlowEndpoints() {
				cfg.Flows = append(cfg.Flows, muzha.Flow{Src: fe[0], Dst: fe[1], Variant: muzha.Muzha})
			}
			return item{key: fmt.Sprintf("seed=%d", s), cfg: cfg}, nil
		},
	}
}
