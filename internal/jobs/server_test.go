package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muzha"
)

func chainConfig(t *testing.T, hops int, d time.Duration, seed int64) muzha.Config {
	t.Helper()
	top, err := muzha.ChainTopology(hops)
	if err != nil {
		t.Fatal(err)
	}
	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Duration = d
	cfg.Seed = seed
	cfg.Flows = []muzha.Flow{{Src: 0, Dst: hops, Variant: muzha.Muzha}}
	return cfg
}

// newTestServer starts a daemon over httptest and returns it plus a
// client. Cleanup drains with zero grace (canceling whatever is still
// running) and closes the journals.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(0)
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv, &Client{BaseURL: ts.URL, ClientID: "test"}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitRunAndCacheHitByteIdentical(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	cfg := chainConfig(t, 2, 2*time.Second, 11)

	j1, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	j1, err = cli.Wait(ctx, j1.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateDone {
		t.Fatalf("job ended %s [%s]: %s", j1.State, j1.Class, j1.Error)
	}

	// The duplicate must be served from the cache without re-running:
	// born done, flagged Cached, same bytes.
	j2, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("duplicate = state %s cached %v, want done from cache", j2.State, j2.Cached)
	}
	if j2.ID == j1.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	r1, err := cli.Result(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Result(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("cached result differs from the original bytes")
	}

	// ...and identical to an uninterrupted local run through the shared
	// encoder. The daemon arms default guards; a completed run is
	// bit-for-bit identical with or without them.
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, want) {
		t.Fatalf("daemon result differs from local run:\ndaemon: %.120s\n local: %.120s", r1, want)
	}

	st := srv.Snapshot()
	if st.CacheHits != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 completed", st)
	}
}

// TestSubmissionWidthSharesCacheEntry: Config.Workers is only an
// execution width, excluded from Hash, so two submissions of a
// multi-domain config that differ only in Workers share one cache entry,
// and its bytes equal a local run at any width.
func TestSubmissionWidthSharesCacheEntry(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	// Two islands 2 km apart, far beyond carrier-sense range: two domains.
	islands, err := muzha.GridIslandsTopology(2, 2, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fe := islands.FlowEndpoints()
	cfg := muzha.DefaultConfig()
	cfg.Topology = islands
	cfg.Duration = 2 * time.Second
	cfg.Seed = 7
	cfg.Flows = []muzha.Flow{
		{Src: fe[0][0], Dst: fe[0][1], Variant: muzha.Muzha},
		{Src: fe[1][0], Dst: fe[1][1], Variant: muzha.NewReno},
	}

	cfg.Workers = 1
	j1, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1, err = cli.Wait(ctx, j1.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if j1.State != StateDone {
		t.Fatalf("job ended %s [%s]: %s", j1.State, j1.Class, j1.Error)
	}
	cfg.Workers = 4
	j2, err := cli.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.State != StateDone {
		t.Fatalf("wider submission = state %s cached %v, want done from cache", j2.State, j2.Cached)
	}
	r1, err := cli.Result(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Result(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("submissions differing only in Workers got different bytes")
	}
	if st := srv.Snapshot(); st.CacheEntries != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 cache entry / 1 hit", st)
	}

	for _, w := range []int{0, 2} {
		cfg.Workers = w
		res, err := muzha.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, want) {
			t.Errorf("cached result differs from a local run at workers=%d", w)
		}
	}
}

func TestCrashRecoveryRequeuesAndMatchesUninterruptedRun(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	cfg := chainConfig(t, 2, 2*time.Second, 7)
	canonical, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// Forge the journal a SIGKILLed daemon leaves behind: a job caught
	// mid-run plus a half-written trailing line.
	crashed := Job{
		ID:     "j000000-" + hash[:12],
		Hash:   hash,
		Client: "crash",
		State:  StateRunning,
		Config: canonical,
	}
	line, err := json.Marshal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	blob := append(line, '\n')
	blob = append(blob, []byte(`{"id":"j000001-hal`)...)
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, cli := newTestServer(t, ServerConfig{DataDir: dir})
	if st := srv.Snapshot(); st.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", st.Requeued)
	}
	j, err := cli.Wait(ctx, crashed.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("recovered job ended %s [%s]: %s", j.State, j.Class, j.Error)
	}
	got, err := cli.Result(ctx, crashed.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := muzha.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered run differs from the uninterrupted run")
	}
}

// TestExecuteInProcess: Execute admits a config exactly like an HTTP
// submission. A fresh config runs to done with the bytes HTTP serves,
// the repeat is a cache hit, and a full queue is a *BusyError.
func TestExecuteInProcess(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	raw, err := json.Marshal(chainConfig(t, 2, 2*time.Second, 21))
	if err != nil {
		t.Fatal(err)
	}

	j1, err := srv.Execute(ctx, raw, "exec")
	if err != nil {
		t.Fatal(err)
	}
	if j1.State != StateDone || j1.Cached {
		t.Fatalf("fresh Execute = state %s cached %v [%s]: %s", j1.State, j1.Cached, j1.Class, j1.Error)
	}
	served, err := cli.Result(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Result, served) {
		t.Fatal("Execute result differs from the bytes served over HTTP")
	}

	j2, err := srv.Execute(ctx, raw, "exec")
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StateDone || !j2.Cached || !bytes.Equal(j2.Result, served) {
		t.Fatalf("repeat Execute = state %s cached %v, want done from cache with the same bytes", j2.State, j2.Cached)
	}

	// A long run takes the only queue slot; the cleanup drain cancels it.
	if _, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(chainConfig(t, 4, time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.Execute(ctx, raw2, "exec")
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusTooManyRequests {
		t.Fatalf("Execute on a full queue err = %v, want a 429 BusyError", err)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	// A long scenario occupies the only slot; the drain in cleanup
	// cancels it, so the test never pays for the full simulated hour.
	long := chainConfig(t, 4, time.Hour, 1)
	if _, err := cli.Submit(ctx, long); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 2))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want BusyError", err)
	}
	if busy.Status != http.StatusTooManyRequests || busy.RetryAfter < time.Second {
		t.Fatalf("busy = %+v, want 429 with Retry-After >= 1s", busy)
	}
	if st := srv.Snapshot(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestPerClientLimit(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 8, PerClient: 1})
	if _, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 2))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusTooManyRequests {
		t.Fatalf("same client second submit err = %v, want 429", err)
	}
	// Another client still has room.
	other := &Client{BaseURL: cli.BaseURL, ClientID: "other"}
	if _, err := other.Submit(ctx, chainConfig(t, 4, time.Hour, 3)); err != nil {
		t.Fatalf("other client refused: %v", err)
	}
}

func TestSweepAdmissionIsAtomic(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	// Two fresh configs need two slots; only one exists — nothing may be
	// admitted, or a client could never tell which half of its grid ran.
	_, err := cli.SubmitSweep(ctx, []muzha.Config{
		chainConfig(t, 4, time.Hour, 1),
		chainConfig(t, 4, time.Hour, 2),
	})
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep err = %v, want 429", err)
	}
	if st := srv.Snapshot(); st.Queued+st.Running != 0 {
		t.Fatalf("partial sweep admitted: %+v", st)
	}

	// Duplicates inside one sweep coalesce onto a single slot and job.
	dup := chainConfig(t, 2, time.Second, 3)
	jobsOut, err := cli.SubmitSweep(ctx, []muzha.Config{dup, dup})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobsOut) != 2 || jobsOut[0].ID != jobsOut[1].ID {
		t.Fatalf("sweep duplicates did not coalesce: %+v", jobsOut)
	}
	if _, err := cli.Wait(ctx, jobsOut[0].ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeliversProgressAndDone(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{ProgressEvery: 512})
	j, err := cli.Submit(ctx, chainConfig(t, 2, 2*time.Second, 5))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []muzha.ProgressUpdate
	done, err := cli.Stream(ctx, j.ID, func(p muzha.ProgressUpdate) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("stream ended with state %s [%s]: %s", done.State, done.Class, done.Error)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress events")
	}
	last := snaps[len(snaps)-1]
	if last.Events == 0 || last.SimTime == 0 {
		t.Fatalf("final progress = %+v, want nonzero", last)
	}
}

func TestDrainCancelsRequeuesAndRefuses(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 2})
	j, err := cli.Submit(ctx, chainConfig(t, 4, time.Hour, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so the drain has something to
	// cancel.
	for srv.Snapshot().Running == 0 {
		select {
		case <-ctx.Done():
			t.Fatal("job never started")
		case <-time.After(5 * time.Millisecond):
		}
	}
	srv.Drain(10 * time.Millisecond)

	got, ok := srv.store.Get(j.ID)
	if !ok || got.State != StateQueued {
		t.Fatalf("after drain job is %s, want queued for the next start", got.State)
	}
	_, err = cli.Submit(ctx, chainConfig(t, 2, time.Second, 1))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon err = %v, want 503", err)
	}
}

func TestSubmitRejectsInvalidConfig(t *testing.T) {
	ctx := testCtx(t)
	_, cli := newTestServer(t, ServerConfig{})
	bad := chainConfig(t, 2, time.Second, 1)
	bad.Flows[0].Dst = 99 // out of range: must be refused at admission
	_, err := cli.Submit(ctx, bad)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
}

// TestDRAIClampKeysItsOwnCacheEntry: DRAIClamp changes what a run
// computes, so two submissions differing only in it must hash apart —
// two cache entries and two runs, never a cache hit serving the
// unclamped result for the clamped config.
func TestDRAIClampKeysItsOwnCacheEntry(t *testing.T) {
	ctx := testCtx(t)
	srv, cli := newTestServer(t, ServerConfig{})
	cfg := chainConfig(t, 4, 3*time.Second, 3)
	cfg.Flows[0].Variant = muzha.NewReno

	var results [2]json.RawMessage
	for i, clamp := range []bool{false, true} {
		cfg.DRAIClamp = clamp
		j, err := cli.Submit(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if j.Cached {
			t.Fatalf("drai_clamp=%v submission served from the cache", clamp)
		}
		if j, err = cli.Wait(ctx, j.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("drai_clamp=%v job ended %s [%s]: %s", clamp, j.State, j.Class, j.Error)
		}
		if results[i], err = cli.Result(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		res, err := muzha.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("drai_clamp=%v daemon result differs from a local run", clamp)
		}
	}
	if bytes.Equal(results[0], results[1]) {
		t.Fatal("clamped and unclamped runs returned the same bytes")
	}
	if st := srv.Snapshot(); st.CacheEntries != 2 || st.CacheHits != 0 || st.Completed != 2 {
		t.Fatalf("stats = %+v, want 2 cache entries / 0 hits / 2 completed", st)
	}
}
