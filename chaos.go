package muzha

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// ChaosOptions configures a chaos sweep: Runs randomized scenarios are
// generated from Seed (scenario i uses Seed+i) and executed, each with
// its own topology, flow mix, optional mobility and background load,
// and a randomized fault schedule. Every scenario runs twice and the
// two Results must match bit-for-bit — any divergence is a determinism
// bug in the simulator itself.
type ChaosOptions struct {
	// Seed is the base scenario seed.
	Seed int64
	// Runs is how many scenarios to generate (default 10).
	Runs int
	// Duration is the simulated time per scenario (default 3s).
	Duration time.Duration
	// Sweep supervises the sweep: worker parallelism, per-run guards,
	// and the resumable result store. The zero value runs serial and
	// unguarded.
	Sweep SweepOptions
}

// ChaosRun is one chaos scenario's outcome.
type ChaosRun struct {
	// Seed regenerates the scenario via ChaosScenario.
	Seed int64
	// Scenario is a short human-readable description.
	Scenario string
	// Result is the run's outcome; nil when Err is set.
	Result *Result
	// Err holds a run failure — recovered engine panics, guard aborts
	// (deadline, event budget, livelock) and scenario-generation errors
	// included. Classify(Err) names the failure class.
	Err error
	// NonDeterministic is set when the second run's Result differed
	// from the first, or the automatic failure replay diverged from the
	// first attempt.
	NonDeterministic bool
	// Coverage lists the Sometimes assertions the run reached (sorted).
	// Historically the invariant report was only inspected on failure;
	// surfacing it per run lets any caller — not just the
	// coverage-guided loop — see which interesting states a sweep
	// actually explored. Empty when the run produced no Result.
	Coverage []string
	// Resumed is set when the outcome came from the sweep's result
	// store instead of a fresh run.
	Resumed bool
}

// Failed reports whether the scenario hit any chaos-failure condition:
// an error (or panic), an Always-invariant violation, or
// non-determinism.
func (r ChaosRun) Failed() bool {
	if r.Err != nil || r.NonDeterministic {
		return true
	}
	return r.Result != nil && r.Result.InvariantViolations > 0
}

// FailureClass names the run's failure class — ClassPanic,
// ClassLivelock, ClassEventBudget, ClassDeadline, ClassNonDeterministic,
// ClassInvariant or ClassError — or "" for a healthy run.
func (r ChaosRun) FailureClass() string {
	switch {
	case r.NonDeterministic:
		return ClassNonDeterministic
	case r.Err != nil:
		return Classify(r.Err)
	case r.Result != nil && r.Result.InvariantViolations > 0:
		return ClassInvariant
	}
	return ""
}

// ChaosScenario deterministically generates one randomized scenario
// from a seed: a topology (chain, cross, grid or random placement), one
// to three TCP flows cycling through the variant set, optional DSR,
// RED, delayed ACKs, random loss, background CBR load and mobility, and
// zero to four scheduled faults. The same seed always yields the same
// Config.
func ChaosScenario(seed int64, duration time.Duration) (Config, string, error) {
	if duration < time.Second {
		duration = 3 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var desc strings.Builder

	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = duration

	// Topology.
	var (
		top Topology
		err error
	)
	switch rng.Intn(4) {
	case 0:
		top, err = ChainTopology(3 + rng.Intn(5))
	case 1:
		top, err = CrossTopology(4 + 2*rng.Intn(2))
	case 2:
		top, err = GridTopology(3, 3)
	default:
		top, err = RandomTopology(6+rng.Intn(5), 1000, 1000, seed+1)
	}
	if err != nil {
		return Config{}, "", fmt.Errorf("muzha: chaos topology: %w", err)
	}
	cfg.Topology = top
	n := top.Nodes()
	fmt.Fprintf(&desc, "%s", top.Name())

	// Flows: conventional endpoints first, then random distinct pairs,
	// cycling the variant set so every flavour gets chaos coverage.
	//
	// The pool is frozen at the ten historical variants: ChaosScenario's
	// seed->scenario mapping is pinned by the committed golden fixtures
	// (testdata/golden_hashes.json "chaos-seed7"), so growing
	// muzha.Variants() must not reshuffle the draws. Later senders
	// (CUBIC, BBR-lite, ...) get their chaos coverage through the
	// coverage-guided loop (internal/chaoscov), whose spec generator
	// uses the full Variants() pool.
	vs := []Variant{Tahoe, Reno, NewReno, SACK, Vegas, Muzha, Veno, Westwood, Jersey, ECNNewReno}
	nflows := 1 + rng.Intn(3)
	fe := top.FlowEndpoints()
	for i := 0; i < nflows; i++ {
		var src, dst int
		if i < len(fe) {
			src, dst = fe[i][0], fe[i][1]
		} else {
			src = rng.Intn(n)
			dst = rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
		}
		v := vs[(rng.Intn(len(vs))+i*3)%len(vs)]
		f := Flow{
			Src:     src,
			Dst:     dst,
			Variant: v,
			Start:   time.Duration(rng.Int63n(int64(duration / 4))),
			Window:  4 << rng.Intn(3),
		}
		cfg.Flows = append(cfg.Flows, f)
		fmt.Fprintf(&desc, " %s:%d->%d", f.Variant, f.Src, f.Dst)
	}

	// Stack knobs.
	if rng.Intn(4) == 0 {
		cfg.UseDSR = true
		desc.WriteString(" dsr")
	}
	if rng.Intn(4) == 0 {
		cfg.UseRED = true
		desc.WriteString(" red")
	}
	if rng.Intn(5) == 0 {
		cfg.DisableRTSCTS = true
		desc.WriteString(" nortscts")
	}
	if rng.Intn(4) == 0 {
		cfg.DelayedAck = 100 * time.Millisecond
		desc.WriteString(" delack")
	}
	if rng.Intn(4) == 0 {
		cfg.ResidualLossRate = 0.002 * float64(1+rng.Intn(5))
		fmt.Fprintf(&desc, " loss=%.3f", cfg.ResidualLossRate)
	}
	if rng.Intn(5) == 0 {
		cfg.PacketErrorRate = 0.01 * float64(1+rng.Intn(4))
		fmt.Fprintf(&desc, " per=%.2f", cfg.PacketErrorRate)
	}

	// Background CBR load.
	if rng.Intn(3) == 0 {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		cfg.Background = append(cfg.Background, BackgroundFlow{
			Src:     src,
			Dst:     dst,
			RateBps: float64(40000 + rng.Intn(80000)),
			Start:   duration / 5,
		})
		desc.WriteString(" cbr")
	}

	// Random-waypoint mobility on a small node subset.
	if rng.Intn(4) == 0 {
		mobile := []int{rng.Intn(n)}
		if n > 2 && rng.Intn(2) == 0 {
			other := rng.Intn(n - 1)
			if other >= mobile[0] {
				other++
			}
			mobile = append(mobile, other)
		}
		cfg.Mobility = &Mobility{
			Width:       1500,
			Height:      1500,
			MinSpeed:    1,
			MaxSpeed:    2 + float64(rng.Intn(8)),
			Pause:       time.Second,
			MobileNodes: mobile,
		}
		fmt.Fprintf(&desc, " mobile=%v", mobile)
	}

	// Fault schedule: one to four events in the middle of the run.
	nfaults := 1 + rng.Intn(4)
	for i := 0; i < nfaults; i++ {
		at := duration/10 + time.Duration(rng.Int63n(int64(duration/2)))
		window := duration/8 + time.Duration(rng.Int63n(int64(duration/4)))
		if rng.Intn(5) == 0 {
			window = 0 // until the end of the run
		}
		ev := FaultEvent{At: at, Duration: window}
		switch rng.Intn(4) {
		case 0:
			ev.Kind = FaultNodeCrash
			ev.Node = rng.Intn(n)
		case 1:
			ev.Kind = FaultLinkBlackout
			ev.LinkA = rng.Intn(n)
			ev.LinkB = rng.Intn(n - 1)
			if ev.LinkB >= ev.LinkA {
				ev.LinkB++
			}
			ev.OneWay = rng.Intn(3) == 0
		case 2:
			ev.Kind = FaultPartition
			k := 1 + rng.Intn(n-1)
			group := make([]int, k)
			for j := range group {
				group[j] = j
			}
			ev.Groups = [][]int{group}
		default:
			ev.Kind = FaultBurstLoss
			ev.BadLossRate = 0.5 + 0.4*rng.Float64()
			ev.MeanBurstFrames = float64(4 + rng.Intn(12))
			ev.MeanGapFrames = float64(100 + rng.Intn(200))
		}
		cfg.Faults = append(cfg.Faults, ev)
		fmt.Fprintf(&desc, " %s@%.1fs", ev.Kind, at.Seconds())
	}

	if err := cfg.validate(); err != nil {
		return Config{}, "", fmt.Errorf("muzha: chaos scenario seed %d invalid: %w", seed, err)
	}
	return cfg, desc.String(), nil
}

// chaosScenario is swappable in tests to exercise generation failures.
var chaosScenario = ChaosScenario

// ChaosSweep generates and executes opt.Runs chaos scenarios through
// the supervised worker pool. It returns one ChaosRun per scenario;
// inspect Failed or FailureClass on each. The sweep degrades gracefully
// — a scenario that fails to generate, panics, livelocks or blows its
// budget is recorded and the remaining seeds still run. The returned
// error reports only harness-level problems (an unusable store).
func ChaosSweep(opt ChaosOptions) ([]ChaosRun, error) {
	if opt.Runs <= 0 {
		opt.Runs = 10
	}

	runs := make([]ChaosRun, opt.Runs)
	var cfgs []Config
	var idx []int // cfgs[k] belongs to runs[idx[k]]
	for i := 0; i < opt.Runs; i++ {
		seed := opt.Seed + int64(i)
		runs[i] = ChaosRun{Seed: seed}
		cfg, desc, err := chaosScenario(seed, opt.Duration)
		if err != nil {
			// A broken generator seed is one failed run, not a dead sweep.
			runs[i].Err = err
			continue
		}
		runs[i].Scenario = desc
		cfgs = append(cfgs, cfg)
		idx = append(idx, i)
	}

	outs, err := runPool(cfgs, opt.Sweep, true)
	if err != nil {
		return runs, err
	}
	for k, o := range outs {
		r := &runs[idx[k]]
		r.Result = o.Result
		r.Resumed = o.Resumed
		if o.Class == ClassNonDeterministic {
			r.NonDeterministic = true
		} else {
			r.Err = o.Err
		}
		if o.Result != nil {
			r.Coverage = o.Result.SometimesCoverage()
		}
	}
	return runs, nil
}
