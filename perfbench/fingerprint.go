package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"muzha"
)

// fingerprint is a semantic digest of one run's outcome: per-flow
// transport counters, per-node counters, Jain's index, injected faults
// and the Always-violation total. It deliberately leaves out
// Result.Events and invariant check counts, so a change that does the
// same work in fewer engine events keeps every fingerprint.
func fingerprint(r *muzha.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "flows %d\n", len(r.Flows))
	for _, f := range r.Flows {
		fmt.Fprintf(h, "f %d %d>%d acked=%d sent=%d retx=%d rto=%d fr=%d fin=%t\n",
			f.ID, f.Src, f.Dst, f.BytesAcked, f.SegmentsSent, f.Retransmissions, f.Timeouts, f.FastRecoveries, f.Finished)
	}
	fmt.Fprintf(h, "nodes %d\n", len(r.Nodes))
	for _, n := range r.Nodes {
		fmt.Fprintf(h, "n %d fwd=%d qd=%d mk=%d mr=%d md=%d lf=%d rerr=%d disc=%d\n",
			n.ID, n.Forwarded, n.QueueDrops, n.Marked, n.MACRetries, n.MACDrops, n.LinkFailures, n.RERRSent, n.Discoveries)
	}
	fmt.Fprintf(h, "jain %016x\n", math.Float64bits(r.JainIndex))
	ft := r.Faults
	fmt.Fprintf(h, "faults %d %d %d %d %d %d %d\n",
		ft.Crashes, ft.Reboots, ft.Blackouts, ft.Restores, ft.Partitions, ft.Heals, ft.BurstPhases)
	fmt.Fprintf(h, "violations %d\n", r.InvariantViolations)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fingerprintsFile holds the committed fingerprints: workload -> run
// key -> fingerprint. It is regenerated with -record.
const fingerprintsFile = "fingerprints.json"

//go:embed fingerprints.json
var committedJSON []byte

type fingerprintSet map[string]map[string]string

func committedFingerprints() (fingerprintSet, error) {
	var fs fingerprintSet
	if err := json.Unmarshal(committedJSON, &fs); err != nil {
		return nil, fmt.Errorf("decode committed fingerprints: %w", err)
	}
	return fs, nil
}

// verdict is one run's fingerprint check.
type verdict struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	// Committed is false for a run whose key has no committed
	// fingerprint (a held-out seed); such a run is still checked for
	// errors, invariant violations and width invariance.
	Committed bool `json:"committed"`
}

// check compares a run against the committed fingerprint for its key.
// A run with Always violations fails even when its key is new.
func (fs fingerprintSet) check(workload, key string, r *muzha.Result) (verdict, error) {
	v := verdict{Key: key, Fingerprint: fingerprint(r)}
	if r.InvariantViolations != 0 {
		return v, fmt.Errorf("%s %s: %d invariant violations", workload, key, r.InvariantViolations)
	}
	want, ok := fs[workload][key]
	if !ok {
		return v, nil
	}
	v.Committed = true
	if want != v.Fingerprint {
		return v, fmt.Errorf("%s %s: fingerprint %s, committed %s", workload, key, v.Fingerprint, want)
	}
	return v, nil
}

// record merges fresh fingerprints for one workload into the
// committed file at path.
func record(path, workload string, fresh map[string]string) error {
	fs := fingerprintSet{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &fs); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	fs[workload] = fresh
	b, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys lists a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// recordFingerprints runs the first n inputs of a workload's seed
// stream directly, without timing, and commits their fingerprints. The
// daemon workload's inputs are recorded the same way: the benchmark
// requires the daemon's results to equal the direct ones byte for byte.
func recordFingerprints(name string, seed int64, n int) error {
	gen := map[string]func(rec *recorder, tr uint64, seed int64, i int) (item, error){
		"chain4":    chain4(0, nil).gen,
		"world1000": world1000(0, nil).gen,
		"daemon_sweep": func(rec *recorder, tr uint64, seed int64, i int) (item, error) {
			return sweepItem(rec, tr, paperSweep(), seed, i)
		},
	}[name]
	if gen == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	fresh := map[string]string{}
	for i := 0; i < n; i++ {
		it, err := gen(newRecorder(false), 0, seed, i)
		if err != nil {
			return err
		}
		res, _, _, err := simulate(newRecorder(false), 0, it.cfg)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, it.key, err)
		}
		if res.InvariantViolations != 0 {
			return fmt.Errorf("%s %s: %d invariant violations", name, it.key, res.InvariantViolations)
		}
		fresh[it.key] = fingerprint(res)
	}
	return record(filepath.Join("perfbench", fingerprintsFile), name, fresh)
}
