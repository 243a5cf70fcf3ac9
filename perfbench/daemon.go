package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"muzha"
	"muzha/internal/jobs"
)

// clients is how many closed-loop clients submit to the daemon, each
// with one job in flight; it matches the server's worker count.
const clients = 2

// sweepSeeds is how many consecutive seeds one batch (one cold pass)
// covers.
const sweepSeeds = 1

// sweepPoint is one scenario of the paper-claim sweep, before a seed.
type sweepPoint struct {
	name     string
	cross    bool
	hops     int
	variants []muzha.Variant
}

// paperSweep is chain hops {4,8,16} x {NewReno, SACK, Vegas, Muzha}
// plus the 6-hop cross pairs NewReno+Vegas and NewReno+Muzha.
func paperSweep() []sweepPoint {
	var pts []sweepPoint
	for _, h := range []int{4, 8, 16} {
		for _, v := range []muzha.Variant{muzha.NewReno, muzha.SACK, muzha.Vegas, muzha.Muzha} {
			pts = append(pts, sweepPoint{name: fmt.Sprintf("chain%d-%s", h, v), hops: h, variants: []muzha.Variant{v}})
		}
	}
	for _, v := range []muzha.Variant{muzha.Vegas, muzha.Muzha} {
		pts = append(pts, sweepPoint{name: "cross6-newreno+" + string(v), cross: true, hops: 6, variants: []muzha.Variant{muzha.NewReno, v}})
	}
	return pts
}

// sweepItem builds input i of the sweep stream: point i mod len(sweep)
// at seed seed + i/len(sweep), 10 s of simulated time at window 8.
func sweepItem(rec *recorder, tr uint64, pts []sweepPoint, seed int64, i int) (item, error) {
	pt := pts[i%len(pts)]
	s := seed + int64(i/len(pts))
	sp := rec.begin("topo.build", tr, nil)
	var top muzha.Topology
	var err error
	if pt.cross {
		top, err = muzha.CrossTopology(pt.hops)
	} else {
		top, err = muzha.ChainTopology(pt.hops)
	}
	sp.end()
	if err != nil {
		return item{}, err
	}
	cfg := muzha.DefaultConfig()
	cfg.Topology = top
	cfg.Duration = 10 * time.Second
	cfg.Window = 8
	cfg.Seed = s
	for k, fe := range top.FlowEndpoints()[:len(pt.variants)] {
		cfg.Flows = append(cfg.Flows, muzha.Flow{Src: fe[0], Dst: fe[1], Variant: pt.variants[k]})
	}
	sp = rec.begin("muzha.validate", tr, nil)
	err = cfg.Validate()
	sp.end()
	return item{key: fmt.Sprintf("%s/seed=%d", pt.name, s), cfg: cfg}, err
}

// daemon is a jobs.Server in this process, reached over loopback HTTP.
type daemon struct {
	srv    *jobs.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	tr     *http.Transport
}

// startDaemon opens a server on dir and returns once it answers its
// health check.
func startDaemon(dir string) (*daemon, error) {
	srv, err := jobs.NewServer(jobs.ServerConfig{DataDir: dir, Workers: clients})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxIdleConnsPerHost: clients},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	resp, err := (&http.Client{Transport: d.tr}).Get(d.url + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) client(id string) *jobs.Client {
	return &jobs.Client{BaseURL: d.url, ClientID: id, HTTPClient: &http.Client{Transport: d.tr}}
}

// stop shuts the HTTP server and the job server down and waits for
// both; the journals are closed on return.
func (d *daemon) stop() error {
	err := d.hs.Shutdown(context.Background())
	<-d.served
	d.tr.CloseIdleConnections()
	d.srv.Drain(0)
	return errors.Join(err, d.srv.Close())
}

// daemonSweep submits the paper sweep as jobs to an in-process server
// from closed-loop clients. One batch is a cold pass over the next
// sweepSeeds seeds, then the same jobs again (every one a cache hit),
// then the same inputs run directly in process, one at a time; the
// cold, hit and direct result bytes must all be equal.
type daemonSweep struct {
	seed int64
	dir  string
	pts  []sweepPoint
	fps  fingerprintSet

	d      *daemon
	next   int
	first  []item   // the first measured batch, resubmitted after reopen
	firstB [][]byte // its cold result bytes
	cold   int      // cold jobs submitted
	hits   int      // cache-hit submissions
}

func newDaemonSweep(seed int64, dir string, fps fingerprintSet) *daemonSweep {
	return &daemonSweep{seed: seed, dir: dir, pts: paperSweep(), fps: fps}
}

// daemonSetups is how many servers a run starts; a start takes about a
// millisecond, so it takes many for a steady median.
const daemonSetups = 100

func (w *daemonSweep) setups() int { return daemonSetups }

// setup opens a server on a fresh data directory, timed from server
// start to its first healthy response. The last set-up's server stays
// up and runs one untimed warm-up job outside the measured inputs.
func (w *daemonSweep) setup(p *phase, k int) (float64, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("setup%d", k))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := startDaemon(dir)
	took := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	if k < daemonSetups-1 {
		return took, d.stop()
	}
	w.d = d
	it, err := sweepItem(newRecorder(false), 0, w.pts, w.seed-1, 0)
	if err != nil {
		return took, err
	}
	raw, err := json.Marshal(it.cfg)
	if err != nil {
		return took, err
	}
	j, err := w.d.srv.Execute(context.Background(), raw, "warmup")
	if err == nil && j.State != jobs.StateDone {
		err = fmt.Errorf("warm-up job ended %s: %s", j.State, j.Error)
	}
	return took, err
}

// each runs fn on inputs [0, n) from `clients` goroutines c, one input
// in flight per goroutine, and returns once all are done.
func each(n int, fn func(c, i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// batch runs one cold pass, its hit pass and its direct pass.
func (w *daemonSweep) batch(p *phase) error {
	n := sweepSeeds * len(w.pts)
	lo := w.next
	w.next += n
	items := make([]item, n)
	for i := range items {
		it, err := sweepItem(p.rec, p.rec.newTrace(), w.pts, w.seed, lo+i)
		if err != nil {
			return err
		}
		items[i] = it
	}
	cold := make([][]byte, n)
	ctx := context.Background()
	cls := make([]*jobs.Client, clients)
	for c := range cls {
		cls[c] = w.d.client(fmt.Sprintf("c%d", c))
	}

	sp := p.rec.begin("batch", p.rec.newTrace(), nil)
	each(n, func(c, i int) {
		tr := p.rec.newTrace()
		job := p.rec.begin("job", tr, nil)
		sub := p.rec.begin("jobs.submit", tr, job)
		j, err := cls[c].Submit(ctx, items[i].cfg)
		sub.end()
		if err == nil && !j.State.Terminal() {
			j, err = cls[c].Stream(ctx, j.ID, nil)
		}
		job.end()
		p.outcome(w.coldResult(p, items[i], j, err, &cold[i]))
	})
	wall := sp.end()
	w.cold += n

	each(n, func(c, i int) {
		hit := p.rec.begin("hit", p.rec.newTrace(), nil)
		j, err := cls[c].Submit(ctx, items[i].cfg)
		hit.end()
		p.outcome(sameResult("cache hit", items[i].key, j, err, cold[i]))
	})
	w.hits += n

	// The direct pass runs one input at a time, so the calibration after
	// each run times the host without a second run beside it. Their
	// median normalises the cold pass too.
	var cals []float64
	for i, it := range items {
		_, b, d, err := simulate(p.rec, p.rec.newTrace(), it.cfg)
		if err == nil {
			cals = append(cals, p.ranHere(d))
			if !bytes.Equal(b, cold[i]) {
				err = fmt.Errorf("daemon_sweep %s: direct result differs from the daemon's", it.key)
			}
		}
		p.outcome(err)
	}
	if p.calibrated && len(cals) > 0 {
		p.rec.add("batch.norm", wall*calRefS/median(cals))
	}

	if w.first == nil {
		w.first, w.firstB = items, cold
	}
	return nil
}

// coldResult checks a cold job's outcome and keeps its bytes.
func (w *daemonSweep) coldResult(p *phase, it item, j jobs.Job, err error, keep *[]byte) error {
	if err != nil {
		return fmt.Errorf("daemon_sweep %s: %w", it.key, err)
	}
	if j.State != jobs.StateDone || j.Cached {
		return fmt.Errorf("daemon_sweep %s: cold job ended %s (cached %t): %s", it.key, j.State, j.Cached, j.Error)
	}
	p.ran()
	var res muzha.Result
	if err := json.Unmarshal(j.Result, &res); err != nil {
		return fmt.Errorf("daemon_sweep %s: decode result: %w", it.key, err)
	}
	*keep = j.Result
	return p.checked(w.fps, "daemon_sweep", it.key, it.cfg.MSS, &res, len(j.Result))
}

// sameResult requires a submission to be answered from the cache with
// exactly the cold result's bytes.
func sameResult(what, key string, j jobs.Job, err error, want []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("daemon_sweep %s %s: %w", what, key, err)
	case j.State != jobs.StateDone || !j.Cached:
		return fmt.Errorf("daemon_sweep %s %s: job ended %s (cached %t)", what, key, j.State, j.Cached)
	case want == nil || !bytes.Equal(j.Result, want):
		return fmt.Errorf("daemon_sweep %s %s: result bytes differ from the cold run's", what, key)
	}
	return nil
}

// finish records the journal sizes and the cache hit ratio, then
// reopens a server on the same data directory (timed as jobs.reopen)
// and requires the first batch back from its cache, byte for byte.
func (w *daemonSweep) finish(p *phase) error {
	st, err := w.d.client("stats").Stats(context.Background())
	if err != nil {
		return err
	}
	if subs := w.cold + w.hits; subs > 0 {
		p.rec.add("jobs.hit_ratio", float64(st.CacheHits)/float64(subs))
	}
	if err := w.d.stop(); err != nil {
		return err
	}
	w.d = nil
	dir := filepath.Join(w.dir, fmt.Sprintf("setup%d", daemonSetups-1))
	for name, metric := range map[string]string{"jobs.jsonl": "jobs.store_bytes", "cache.jsonl": "jobs.cache_bytes"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		per := w.cold + w.hits // every submission journals a job
		if name == "cache.jsonl" {
			per = w.cold // every cold job caches one result
		}
		p.rec.add(metric, float64(fi.Size())/float64(per))
	}

	sp := p.rec.begin("jobs.reopen", p.rec.newTrace(), nil)
	d, err := startDaemon(dir)
	sp.end()
	if err != nil {
		return err
	}
	w.d = d
	cl := d.client("reopen")
	for i, it := range w.first {
		j, err := cl.Submit(context.Background(), it.cfg)
		p.outcome(sameResult("after reopen", it.key, j, err, w.firstB[i]))
	}
	return nil
}

func (w *daemonSweep) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}
