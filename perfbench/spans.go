package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one simulation run or one job share a Trace ID;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  uint64  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder collects span durations by name, and in a traced run the
// span records themselves, in memory; nothing is written until the
// benchmark ends. It is safe for concurrent use.
type recorder struct {
	t0   time.Time
	keep bool

	mu    sync.Mutex
	next  uint64
	spans []span
	durs  map[string][]float64
}

func newRecorder(keep bool) *recorder {
	return &recorder{t0: time.Now(), keep: keep, durs: make(map[string][]float64)}
}

// openSpan is a started span; end closes it.
type openSpan struct {
	r     *recorder
	id    uint64
	trace uint64
	par   uint64
	name  string
	start time.Time
}

// newTrace allocates an ID that groups the spans of one run or job.
func (r *recorder) newTrace() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// begin starts a span named name under parent (nil for a root) in the
// given trace.
func (r *recorder) begin(name string, trace uint64, parent *openSpan) *openSpan {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	o := &openSpan{r: r, id: id, trace: trace, name: name, start: time.Now()}
	if parent != nil {
		o.par = parent.id
	}
	return o
}

// end closes the span and returns its duration in seconds.
func (o *openSpan) end() float64 {
	now := time.Now()
	d := now.Sub(o.start).Seconds()
	o.r.add(o.name, d)
	if o.r.keep {
		o.r.mu.Lock()
		o.r.spans = append(o.r.spans, span{
			ID: o.id, Parent: o.par, Trace: o.trace, Name: o.name,
			Start: o.start.Sub(o.r.t0).Seconds(), End: now.Sub(o.r.t0).Seconds(),
		})
		o.r.mu.Unlock()
	}
	return d
}

// add records a sample under name without a span record: a size or a
// duration measured some other way.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], v)
	r.mu.Unlock()
}

// samples returns a copy of the values recorded under name.
func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.durs[name]...)
}

// writeSpans writes the kept span records as JSON lines, after a first
// line holding the host stamp.
func (r *recorder) writeSpans(path string, h host) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]host{"host": h}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
