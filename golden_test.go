package muzha

// Golden event-sequence determinism tests.
//
// Every engine event carries a (fire time, sequence number) pair; the
// ordered stream of those pairs is a complete fingerprint of a run's
// control flow — any change to scheduling order, timer behaviour, medium
// geometry or random-draw placement perturbs it. These tests hash the
// stream for seven reference scenarios (static chain, two-flow cross,
// mobility, chaos with fault injection, three multi-domain islands) and
// compare against committed fixtures, so engine optimizations must prove
// they changed nothing. An optimization that removes events changes the
// stream by construction; TestGoldenSemantic, which hashes only what
// each radio transmits and the Result, is its proof instead.
//
// Regenerate (only when an intentional semantic change occurs, or when
// TestGoldenSemantic proves an event-removing change left behaviour
// intact) with:
//
//	go test -run TestGoldenEventSequence -update-golden .

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muzha/internal/canon"
	"muzha/internal/packet"
	"muzha/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_hashes.json from the current engine")

const goldenPath = "testdata/golden_hashes.json"

// goldenScenarios builds the reference configs. Each returns a fresh
// Config so hashing one scenario cannot leak state into the next.
func goldenScenarios(t *testing.T) map[string]Config {
	t.Helper()
	scenarios := make(map[string]Config)

	chain, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = chain
	cfg.Duration = 5 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	scenarios["chain-4hop-muzha"] = cfg

	cross, err := CrossTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	fe := cross.FlowEndpoints()
	cfg = DefaultConfig()
	cfg.Topology = cross
	cfg.Duration = 5 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: NewReno},
		{Src: fe[1][0], Dst: fe[1][1], Variant: Muzha},
	}
	scenarios["cross-4hop-newreno-muzha"] = cfg

	mob, err := ChainTopologySpaced(4, 180)
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig()
	cfg.Topology = mob
	cfg.Duration = 10 * time.Second
	cfg.Window = 8
	cfg.Seed = 3
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	cfg.Mobility = &Mobility{
		Width: 800, Height: 200,
		MinSpeed: 2, MaxSpeed: 10,
		Pause:       2 * time.Second,
		MobileNodes: []int{2},
	}
	scenarios["chain-4hop-mobility"] = cfg

	chaos, desc, err := ChaosScenario(7, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos scenario (seed 7): %s", desc)
	scenarios["chaos-seed7"] = chaos

	// Multi-domain scenarios: topologies whose fixtures pin the merged
	// event stream; TestParallelFallbackIdentical and
	// TestParallelWidthInvariance replay every golden scenario at widths
	// 1/2/4/8 and must reproduce these exact hashes.
	// The faulted variant exercises per-domain fault scoping, the
	// mobility variant exercises footprint-inflated partitioning.
	for name, cfg := range parallelGoldenScenarios(t) {
		scenarios[name] = cfg
	}

	return scenarios
}

// parallelGoldenScenarios builds the multi-domain reference configs
// shared by the golden fixture, the width-invariance and the
// observer-invariance tests. The fixture hash is the canonical merged
// stream, which must not depend on the width.
func parallelGoldenScenarios(t *testing.T) map[string]Config {
	t.Helper()
	scenarios := make(map[string]Config)

	islands, err := GridIslandsTopology(3, 2, 3, 1200)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 3 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: NewReno},
		{Src: fe[2][0], Dst: fe[2][1], Variant: SACK},
	}
	scenarios["islands-3x-parallel"] = cfg

	faulted := cfg
	faulted.Seed = 11
	faulted.Flows = append([]Flow(nil), cfg.Flows...)
	faulted.Faults = []FaultEvent{
		{Kind: FaultNodeCrash, At: time.Second, Duration: 500 * time.Millisecond, Node: 1},
		{Kind: FaultLinkBlackout, At: 1500 * time.Millisecond, Duration: 400 * time.Millisecond, LinkA: 6, LinkB: 7},
		{Kind: FaultPartition, At: 2 * time.Second, Duration: 300 * time.Millisecond, Groups: [][]int{{0, 1, 2}, {3, 4, 5}}},
		{Kind: FaultBurstLoss, At: 500 * time.Millisecond, Duration: time.Second, BadLossRate: 0.4},
	}
	scenarios["islands-3x-faults-parallel"] = faulted

	mobile := cfg
	mobile.Seed = 5
	mobile.Flows = append([]Flow(nil), cfg.Flows...)
	// Node 1 roams a field confined to the first island, so the
	// conservative footprint keeps the other islands separate domains.
	mobile.Mobility = &Mobility{
		Width: 500, Height: 250,
		MinSpeed: 1, MaxSpeed: 8,
		Pause:       time.Second,
		MobileNodes: []int{1},
	}
	scenarios["islands-3x-mobility-parallel"] = mobile

	return scenarios
}

// goldenHash runs cfg with the event hook installed and returns
// "fnv64a(time,seq stream)-eventcount".
func goldenHash(t *testing.T, cfg Config) string {
	t.Helper()
	h := fnv.New64a()
	var buf [16]byte
	cfg.eventHook = func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:16], seq)
		h.Write(buf[:])
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("golden run failed: %v", err)
	}
	return fmt.Sprintf("%016x-%d", h.Sum64(), res.Events)
}

func TestGoldenEventSequence(t *testing.T) {
	got := make(map[string]string)
	for name, cfg := range goldenScenarios(t) {
		got[name] = goldenHash(t, cfg)
	}
	checkFixture(t, goldenPath, "-update-golden", *updateGolden, got, "event sequence")
}

// checkFixture compares per-scenario hashes against the JSON fixture at
// path, or rewrites the fixture when update is set (the flag named
// updateFlag). what names the hashed property in mismatch messages.
func checkFixture(t *testing.T, path, updateFlag string, update bool, got map[string]string, what string) {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", path, got)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with %s to create): %v", updateFlag, err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	for name, wh := range want {
		if got[name] == "" {
			t.Errorf("%s: fixture has a scenario the test no longer builds", name)
			continue
		}
		if got[name] != wh {
			t.Errorf("%s: %s diverged: got %s, fixture %s", name, what, got[name], wh)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: scenario missing from fixture; rerun with %s", name, updateFlag)
		}
	}
}

// TestGoldenHashRepeatable guards the harness itself: the same config
// must hash identically twice in-process, otherwise fixture mismatches
// would be noise rather than signal.
func TestGoldenHashRepeatable(t *testing.T) {
	chain, err := ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topology = chain
	cfg.Duration = 2 * time.Second
	cfg.Window = 8
	cfg.Flows = []Flow{{Src: 0, Dst: 4, Variant: Muzha}}
	if a, b := goldenHash(t, cfg), goldenHash(t, cfg); a != b {
		t.Fatalf("identical configs hashed differently: %s vs %s", a, b)
	}
}

var updateSemantic = flag.Bool("update-semantic", false, "rewrite testdata/golden_semantic.json from the current engine")

const semanticPath = "testdata/golden_semantic.json"

// semanticHash fingerprints what a run does rather than how the engine
// scheduled it: per radio, an FNV-64a hash over every frame it put on
// the air (transmit time, kind, control subtype, MAC source and
// destination, UID, size), folded in radio-ID order together with the
// canonical Result with Events zeroed. A change that reaches the same
// behaviour in fewer engine events keeps this hash while the (time, seq)
// hash of TestGoldenEventSequence moves.
func semanticHash(t *testing.T, cfg Config) string {
	t.Helper()
	radios := make([]hash.Hash64, cfg.Topology.Nodes())
	for i := range radios {
		radios[i] = fnv.New64a()
	}
	cfg.txHook = func(node int, at sim.Time, pkt *packet.Packet) {
		var buf [48]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], uint64(pkt.Kind))
		binary.LittleEndian.PutUint64(buf[16:], uint64(pkt.Ctrl))
		binary.LittleEndian.PutUint32(buf[24:], uint32(pkt.MACSrc))
		binary.LittleEndian.PutUint32(buf[28:], uint32(pkt.MACDst))
		binary.LittleEndian.PutUint64(buf[32:], pkt.UID)
		binary.LittleEndian.PutUint64(buf[40:], uint64(pkt.Size))
		radios[node].Write(buf[:])
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("semantic run failed: %v", err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range radios {
		binary.LittleEndian.PutUint64(buf[:], r.Sum64())
		h.Write(buf[:])
	}
	res.Events = 0
	res.Sanitize()
	doc, err := canon.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(doc)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenSemantic pins the observable behaviour of the golden
// scenarios: the per-radio transmit streams and the Result. Engine
// changes that only remove bookkeeping events (and so legitimately move
// the (time, seq) fixtures) must leave it byte-identical.
//
// Regenerate (only when behaviour changes on purpose) with:
//
//	go test -run TestGoldenSemantic -update-semantic .
func TestGoldenSemantic(t *testing.T) {
	got := make(map[string]string)
	for name, cfg := range goldenScenarios(t) {
		got[name] = semanticHash(t, cfg)
	}
	checkFixture(t, semanticPath, "-update-semantic", *updateSemantic, got, "observable behaviour")
}
