package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"muzha"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"muzha/internal/mac.(*MAC).slotTick", "muzha/internal/sim.(*Sim).Run", "muzha.run"}, "mac"},
		// Runtime and standard-library frames count against their caller.
		{[]string{"runtime.mallocgc", "runtime.newobject", "muzha/internal/sim.(*Sim).Schedule", "muzha/internal/mac.(*MAC).backoff"}, "sim"},
		{[]string{"encoding/json.(*encodeState).marshal", "muzha/internal/canon.JSON", "muzha/internal/jobs.EncodeResult"}, "canon"},
		{[]string{"muzha.mergeResults", "muzha.runDecomposed", "muzha.Run"}, "muzha"},
		{[]string{"muzha/internal/jobs.(*Server).runFn.func1", "muzha/internal/harness.(*Pool).worker"}, "jobs"},
		{[]string{"muzha/internal/topo.GridIslandsFlows[...]", "main.main"}, "topo"},
		// A program package outside the reported layers is "other".
		{[]string{"muzha/internal/packet.(*Packet).Clone", "muzha/internal/node.(*Node).forward"}, "other"},
		// The benchmark's own frames and bare runtime work.
		{[]string{"main.fingerprint", "main.main"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"syscall.Syscall", "net.(*netFD).Read", "net/http.(*conn).serve"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// fakeProfile writes a minimal gzipped profile.proto, enough to
// exercise decodeProfile without a real CPU profile.
type fakeProfile struct {
	msg  []byte
	strs []string
	fns  map[string]uint64
	locs uint64
}

func (b *fakeProfile) field(dst []byte, field int, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(field)<<3|2)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func varintField(dst []byte, field int, v uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(field)<<3)
	return binary.AppendUvarint(dst, v)
}

func (b *fakeProfile) str(s string) uint64 {
	for i, x := range b.strs {
		if x == s {
			return uint64(i)
		}
	}
	b.strs = append(b.strs, s)
	return uint64(len(b.strs) - 1)
}

// sample adds one sample of weight ns whose locations each hold the
// given inlined frames (innermost first), leaf location first.
func (b *fakeProfile) sample(ns int64, locs ...[]string) {
	var locIDs []byte
	for _, frames := range locs {
		b.locs++
		id := b.locs
		var loc []byte
		loc = varintField(loc, 1, id)
		for _, fn := range frames {
			fid, ok := b.fns[fn]
			if !ok {
				fid = uint64(len(b.fns) + 1)
				b.fns[fn] = fid
				var f []byte
				f = varintField(f, 1, fid)
				f = varintField(f, 2, b.str(fn))
				b.msg = b.field(b.msg, 5, f)
			}
			loc = b.field(loc, 4, varintField(nil, 1, fid))
		}
		b.msg = b.field(b.msg, 4, loc)
		locIDs = binary.AppendUvarint(locIDs, id)
	}
	var s []byte
	s = b.field(s, 1, locIDs)
	var vals []byte
	vals = binary.AppendUvarint(vals, 1)
	vals = binary.AppendUvarint(vals, uint64(ns))
	s = b.field(s, 2, vals)
	b.msg = b.field(b.msg, 2, s)
}

func (b *fakeProfile) bytes(t *testing.T) []byte {
	msg := b.msg
	for _, s := range b.strs {
		msg = b.field(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesSyntheticProfile(t *testing.T) {
	b := &fakeProfile{strs: []string{""}, fns: map[string]uint64{}}
	// An inlined runtime frame inside a MAC location: charged to mac.
	b.sample(30, []string{"runtime.memmove", "muzha/internal/mac.(*MAC).slotTick"}, []string{"muzha/internal/sim.(*Sim).Run"})
	b.sample(50, []string{"muzha/internal/sim.(*Sim).pop"}, []string{"muzha.run"})
	b.sample(20, []string{"runtime.gcDrain"}, []string{"runtime.gcBgMarkWorker"})
	shares, err := cpuShares([][]byte{b.bytes(t)})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mac": 0.3, "sim": 0.5, "gc": 0.2}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestCPUSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	stacks, _, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 {
		t.Skip("no samples in 300 ms")
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			found = found || strings.HasPrefix(fn, "muzha/perfbench.TestCPUSharesRealProfile") || strings.HasPrefix(fn, "main.TestCPUSharesRealProfile")
		}
	}
	if !found {
		t.Errorf("decoded stacks never name the profiled test: %q", stacks[0])
	}
	if _, err := cpuShares([][]byte{buf.Bytes()}); err != nil {
		t.Fatal(err)
	}
}

func TestTailRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := tail(xs, 0.9); err == nil {
		t.Fatalf("p90 of 99 samples = %v, want refusal (9 beyond it)", v)
	}
	xs = append(xs, 100)
	v, err := tail(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if v != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", v)
	}
	if _, err := tail(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 beyond it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 100, 3, 7], n=4)
	// == [2.75, 7.5, 40.0]
	q1, q3 := quartiles([]float64{1, 2, 4, 8, 16, 32, 64, 100, 3, 7})
	if q1 != 2.75 || q3 != 40 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 40", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func chainResult(t *testing.T) *muzha.Result {
	t.Helper()
	top, err := muzha.ChainTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 3 * time.Second
	cfg.Window = 8
	cfg.Flows = []muzha.Flow{{Src: 0, Dst: 4, Variant: muzha.Muzha}}
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFingerprintCatchesMutation(t *testing.T) {
	res := chainResult(t)
	fs := fingerprintSet{"w": {"k": fingerprint(res)}}
	if _, err := fs.check("w", "k", res); err != nil {
		t.Fatalf("unmutated result rejected: %v", err)
	}
	mutations := map[string]func(r *muzha.Result){
		"bytes acked":     func(r *muzha.Result) { r.Flows[0].BytesAcked++ },
		"retransmissions": func(r *muzha.Result) { r.Flows[0].Retransmissions++ },
		"finished":        func(r *muzha.Result) { r.Flows[0].Finished = !r.Flows[0].Finished },
		"node forwarded":  func(r *muzha.Result) { r.Nodes[2].Forwarded++ },
		"mac retries":     func(r *muzha.Result) { r.Nodes[1].MACRetries++ },
		"jain":            func(r *muzha.Result) { r.JainIndex = math.Nextafter(r.JainIndex, 0) },
		"faults":          func(r *muzha.Result) { r.Faults.Crashes++ },
		"violation":       func(r *muzha.Result) { r.InvariantViolations++ },
	}
	for name, mutate := range mutations {
		r := *res
		r.Flows = append([]muzha.FlowResult(nil), res.Flows...)
		r.Nodes = append([]muzha.NodeResult(nil), res.Nodes...)
		mutate(&r)
		if _, err := fs.check("w", "k", &r); err == nil {
			t.Errorf("mutated %s passed the check", name)
		}
	}
	// Engine bookkeeping is outside the fingerprint, so doing the same
	// work in fewer events keeps it.
	r := *res
	r.Events /= 2
	r.Invariants = nil
	if _, err := fs.check("w", "k", &r); err != nil {
		t.Errorf("changing Events and invariant checks failed the check: %v", err)
	}
	// A key with no committed fingerprint still fails on a violation.
	r.InvariantViolations = 1
	if v, err := fs.check("w", "held-out", &r); err == nil || v.Committed {
		t.Errorf("held-out key with a violation: verdict %+v, err %v", v, err)
	}
}

func TestCommittedFingerprintsDecode(t *testing.T) {
	fs, err := committedFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"chain4", "daemon_sweep"} {
		if len(fs[w]) == 0 {
			t.Errorf("no committed fingerprints for %s", w)
		}
	}
}

// The workloads run end to end with every check passing, and the
// committed fingerprints of seed 1 match.
func TestChain4BatchMatchesCommitted(t *testing.T) {
	fs, err := committedFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	w := chain4(1, fs)
	p := newPhase(false, true)
	if _, err := w.setup(p, localSetups-1); err != nil {
		t.Fatal(err)
	}
	if err := w.batch(p); err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 || p.attempted != 1+w.runs {
		t.Fatalf("attempted %d, failures %q", p.attempted, p.failures)
	}
	for _, v := range p.verdicts {
		if !v.Committed {
			t.Errorf("%s has no committed fingerprint", v.Key)
		}
	}
	if n := len(p.rec.samples("run.norm")); n != 1+w.runs {
		t.Errorf("%d normalised run times, want %d", n, 1+w.runs)
	}
}

func TestDaemonSweepBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 14 simulations twice")
	}
	fs, err := committedFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	w := newDaemonSweep(1, t.TempDir(), fs)
	defer w.close()
	p := newPhase(false, true)
	if _, err := w.setup(p, daemonSetups-1); err != nil {
		t.Fatal(err)
	}
	if err := w.batch(p); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(p); err != nil {
		t.Fatal(err)
	}
	// 14 cold jobs, 14 hits, 14 direct runs and 14 hits after reopen.
	if len(p.failures) > 0 || p.attempted != 4*14 {
		t.Fatalf("attempted %d, failures %q", p.attempted, p.failures)
	}
	if got := p.rec.samples("jobs.hit_ratio"); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("hit ratio %v, want 0.5", got)
	}
	if len(p.rec.samples("batch.norm")) != 1 || len(p.rec.samples("jobs.reopen")) != 1 {
		t.Error("batch or reopen time missing")
	}
}
