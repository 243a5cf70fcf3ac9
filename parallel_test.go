package muzha

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Parallel-engine proof tests: Config.Workers is only an execution
// width. Every golden scenario, single- or multi-domain, must produce
// the same merged event stream, the same transmit streams and the same
// Result at every width (0 and 1 both mean one domain at a time), and
// attaching an observer must not change the Result either — worker
// scheduling and observation must be unobservable. Between them
// TestParallelFallbackIdentical (the connected goldens) and
// TestParallelWidthInvariance (the multi-domain goldens) replay all
// seven golden scenarios with the Workers=0 run as the reference.

var testWidths = []int{1, 2, 4, 8}

// TestParallelFallbackIdentical pins the connected (single-domain)
// goldens: the default width 0 and every explicit width run the one
// domain identically.
func TestParallelFallbackIdentical(t *testing.T) {
	parallel := parallelGoldenScenarios(t)
	for name, cfg := range goldenScenarios(t) {
		if _, ok := parallel[name]; ok {
			continue // multi-domain scenarios: TestParallelWidthInvariance
		}
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			if n := len(planDomains(cfg)); n != 1 {
				t.Fatalf("scenario is not single-domain (%d domains)", n)
			}
			checkWidthInvariance(t, cfg)
		})
	}
}

// TestParallelWidthInvariance pins the multi-domain goldens: the
// domains merge to the same streams and Result at every width.
func TestParallelWidthInvariance(t *testing.T) {
	for name, cfg := range parallelGoldenScenarios(t) {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			if n := len(planDomains(cfg)); n < 2 {
				t.Fatalf("scenario is not multi-domain (%d domains); the test would prove nothing", n)
			}
			checkWidthInvariance(t, cfg)
		})
	}
}

// checkWidthInvariance compares cfg as given (Workers=0) with every
// width in testWidths: merged event hash, transmit hash and Result.
func checkWidthInvariance(t *testing.T, cfg Config) {
	t.Helper()
	ref := goldenHash(t, cfg)
	refSem := semanticHash(t, cfg)
	refRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range testWidths {
		pcfg := cfg
		pcfg.Workers = w
		if got := goldenHash(t, pcfg); got != ref {
			t.Errorf("workers=%d changed the merged event stream: %s vs %s", w, got, ref)
		}
		if got := semanticHash(t, pcfg); got != refSem {
			t.Errorf("workers=%d changed the transmit streams: %s vs %s", w, got, refSem)
		}
		res, err := Run(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("workers=%d changed the Result", w)
		}
	}
}

// TestParallelObserverInvariance pins the observers of a multi-domain
// run: a PacketTrace or Progress callback must leave the Result equal to
// a bare run's, the merged trace must be byte-identical at every width,
// time-ordered and phrased in global node and flow identifiers, and a
// failing trace writer must fail the run as it does on one domain.
func TestParallelObserverInvariance(t *testing.T) {
	for name, cfg := range parallelGoldenScenarios(t) {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			if n := len(planDomains(cfg)); n < 2 {
				t.Fatalf("scenario is not multi-domain (%d domains); the test would prove nothing", n)
			}
			bare, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var ref string
			for _, w := range testWidths {
				var buf bytes.Buffer
				tcfg := cfg
				tcfg.Workers = w
				tcfg.PacketTrace = &buf
				res, err := Run(tcfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, bare) {
					t.Errorf("workers=%d: a packet trace changed the Result", w)
				}
				if w == testWidths[0] {
					ref = buf.String()
					checkMergedTrace(t, cfg, ref)
				} else if buf.String() != ref {
					t.Errorf("workers=%d changed the merged trace", w)
				}
			}

			pcfg := cfg
			pcfg.Progress = func(ProgressUpdate) {}
			pcfg.ProgressEvery = 1 << 10
			res, err := Run(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, bare) {
				t.Error("a Progress callback changed the Result")
			}

			fcfg := cfg
			fcfg.PacketTrace = failingWriter{}
			res, err = Run(fcfg)
			if res != nil {
				t.Error("a Result escaped a run whose packet trace failed")
			}
			if err == nil || !strings.Contains(err.Error(), "packet trace") || !strings.Contains(err.Error(), "disk full") {
				t.Errorf("trace error not surfaced: %v", err)
			}
		})
	}
}

// checkMergedTrace requires the trace lines to be time-ordered and each
// flow's transport sends to name its global endpoints: data leaves the
// flow's source, ACKs leave its destination.
func checkMergedTrace(t *testing.T, cfg Config, tr string) {
	t.Helper()
	sends := make([]int, len(cfg.Flows))
	prev := -1.0
	for _, line := range strings.Split(strings.TrimSuffix(tr, "\n"), "\n") {
		fields := strings.Fields(line)
		at, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if at < prev {
			t.Fatalf("trace goes back in time at %q", line)
		}
		prev = at
		if fields[0] != "s" || !strings.HasPrefix(fields[5], "f") {
			continue
		}
		id, err := strconv.Atoi(fields[5][1:])
		if err != nil || id < 1 || id > len(cfg.Flows) {
			t.Fatalf("send of an unknown flow: %q", line)
		}
		f := cfg.Flows[id-1]
		src, dst := f.Src, f.Dst
		if strings.HasPrefix(fields[6], "ack=") {
			src, dst = dst, src
		}
		if want := fmt.Sprintf("_%d_", src); fields[2] != want {
			t.Fatalf("flow %d send at node %s, want %s: %q", id, fields[2], want, line)
		}
		if want := fmt.Sprintf("n%d->n%d", src, dst); fields[7] != want {
			t.Fatalf("flow %d send addressed %s, want %s: %q", id, fields[7], want, line)
		}
		sends[id-1]++
	}
	for i, n := range sends {
		if n == 0 {
			t.Errorf("flow %d has no send lines in the merged trace", i+1)
		}
	}
}

// TestParallelMobilityRepartition proves the conservative footprint
// keeps re-partitioning under SetPosition sound: a mobile node roams
// its whole field across the run (many SetPosition epochs), the static
// islands stay separate domains, and the merged stream is identical at
// every width.
func TestParallelMobilityRepartition(t *testing.T) {
	islands, err := GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 4 * time.Second
	cfg.Window = 8
	cfg.Seed = 9
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: Muzha},
	}
	// The field spans island 0 with margin; its footprint stays far
	// beyond CSRange of island 1 (which starts at x=2250).
	cfg.Mobility = &Mobility{
		Width: 600, Height: 400,
		MinSpeed: 5, MaxSpeed: 15,
		Pause:       200 * time.Millisecond,
		MobileNodes: []int{1},
	}
	domains := planDomains(cfg)
	if len(domains) != 2 {
		t.Fatalf("expected 2 domains, got %v", domains)
	}
	ref := goldenHash(t, cfg)
	for _, w := range testWidths {
		pcfg := cfg
		pcfg.Workers = w
		if got := goldenHash(t, pcfg); got != ref {
			t.Errorf("workers=%d diverged under mobility: %s vs %s", w, got, ref)
		}
	}
}

func TestPlanDomainsCouplesFlows(t *testing.T) {
	islands, err := GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = time.Second
	// A flow spanning islands must weld them into one domain: its two
	// endpoints need a shared timeline even though no frame can cross.
	cfg.Flows = []Flow{{Src: 0, Dst: 7}}
	if n := len(planDomains(cfg)); n != 1 {
		t.Fatalf("cross-island flow must couple the islands, got %d domains", n)
	}
	cfg.Flows = []Flow{{Src: 0, Dst: 3}}
	if n := len(planDomains(cfg)); n != 2 {
		t.Fatalf("intra-island flow must keep 2 domains, got %d", n)
	}
}

func TestParallelValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative workers must not validate")
	}
}

// TestParallelProgressAndCancel exercises the observer plumbing of a
// multi-domain run: progress snapshots arrive serialized with a
// terminal snapshot carrying the total event count, and a pre-closed
// Cancel aborts every domain.
func TestParallelProgressAndCancel(t *testing.T) {
	islands, err := GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.Workers = 2
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1]},
		{Src: fe[1][0], Dst: fe[1][1]},
	}

	var updates []ProgressUpdate
	cfg.Progress = func(u ProgressUpdate) { updates = append(updates, u) }
	cfg.ProgressEvery = 1 << 12
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates from multi-domain run")
	}
	last := updates[len(updates)-1]
	if last.Events != res.Events {
		t.Errorf("terminal snapshot events = %d, result has %d", last.Events, res.Events)
	}
	if last.SimTime != cfg.Duration {
		t.Errorf("terminal snapshot sim time = %v, want %v", last.SimTime, cfg.Duration)
	}

	cancel := make(chan struct{})
	close(cancel)
	cfg.Progress = nil
	cfg.Cancel = cancel
	cfg.Guards = RunGuards{LivelockWindow: 1 << 20}
	if _, err := Run(cfg); err == nil {
		t.Fatal("pre-closed Cancel must abort the multi-domain run")
	}
}

// TestParallelRaceSweep drives genuinely concurrent multi-domain runs
// (full fault mix, mobility, background traffic) at NumCPU workers so
// `go test -race` patrols the worker pool, the progress aggregation
// and the merge. It also cross-checks width invariance once more on
// the fault-heavy config.
func TestParallelRaceSweep(t *testing.T) {
	islands, err := GridIslandsTopology(4, 2, 2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	base := DefaultConfig()
	base.Topology = islands
	base.Duration = 2 * time.Second
	base.Window = 8
	base.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: NewReno},
		{Src: fe[2][0], Dst: fe[2][1], Variant: Vegas},
		{Src: fe[3][0], Dst: fe[3][1], Variant: Muzha},
	}
	base.Background = []BackgroundFlow{{Src: 4, Dst: 7, RateBps: 64_000, PacketSize: 256, Start: 500 * time.Millisecond}}
	base.Faults = []FaultEvent{
		{Kind: FaultNodeCrash, At: 600 * time.Millisecond, Duration: 300 * time.Millisecond, Node: 5},
		{Kind: FaultLinkBlackout, At: 800 * time.Millisecond, Duration: 300 * time.Millisecond, LinkA: 8, LinkB: 9},
		{Kind: FaultPartition, At: time.Second, Duration: 200 * time.Millisecond, Groups: [][]int{{0, 1}, {2, 3}}},
		{Kind: FaultBurstLoss, At: 300 * time.Millisecond, Duration: time.Second, BadLossRate: 0.3},
	}
	base.Mobility = &Mobility{
		Width: 400, Height: 300,
		MinSpeed: 1, MaxSpeed: 10,
		Pause:       time.Second,
		MobileNodes: []int{2},
	}

	width := runtime.NumCPU()
	if width < 2 {
		width = 2
	}
	var ref *Result
	for seed := int64(1); seed <= 3; seed++ {
		cfg := base
		cfg.Seed = seed
		cfg.Workers = width
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 1 {
			cfg.Workers = 1
			ref, err = Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("seed 1: workers=%d result differs from workers=1", width)
			}
		}
		if res.Faults.Crashes == 0 || res.Faults.BurstPhases == 0 {
			t.Errorf("seed %d: fault mix not exercised: %+v", seed, res.Faults)
		}
	}
}

// TestSubSeedDistinct guards the per-domain seed derivation: domains of
// one run, and the same domain across neighboring run seeds, must get
// distinct RNG streams.
func TestSubSeedDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for seed := int64(0); seed < 8; seed++ {
		for d := 0; d < 8; d++ {
			s := subSeed(seed, d)
			key := fmt.Sprintf("seed=%d domain=%d", seed, d)
			if prev, ok := seen[s]; ok {
				t.Fatalf("subSeed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
