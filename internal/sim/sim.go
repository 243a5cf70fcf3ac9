// Package sim provides the deterministic discrete-event simulation engine
// that every substrate in this repository runs on.
//
// A Simulator owns a virtual clock, a priority queue of pending events and a
// seeded random source. Events scheduled for the same instant fire in the
// order they were scheduled, so a run is a pure function of the scenario
// configuration and the seed.
//
// The engine is allocation-light by design: event objects live on a free
// list and are recycled the moment they fire or their cancellation is
// collected, the priority queue is a concrete 4-ary indexed heap (no
// interface boxing, fewer cache misses than a binary heap), and a burst
// of events known up front — a frame's per-neighbour signal starts and
// ends — is scheduled as one sorted run behind a single heap node
// (ScheduleRun), calling a package-level function with an argument and
// the member's index instead of a closure per event. Outstanding event
// handles are generation-stamped EventRef values, so a handle kept past
// its event's lifetime becomes inert instead of aliasing a recycled slot.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, in nanoseconds since the start of the run.
type Time int64

// Common conversion helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the timestamp expressed in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the timestamp to a time.Duration relative to run start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a wall-clock style duration into simulator time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// event is a pooled scheduled callback. Slots are recycled through the
// simulator's free list when the event fires or its cancellation is
// collected; gen increments on every recycle so stale EventRef handles
// can detect that their event is gone.
type event struct {
	at  Time
	seq uint64
	// Exactly one of fn or run is set. A run node's (at, seq) is the key
	// of its next member.
	fn        func()
	run       *run
	sim       *Simulator
	index     int32 // heap index, -1 when not queued
	gen       uint32
	cancelled bool
}

// run is the pooled member list behind one ScheduleRun heap node.
// entries is sorted by (at, seq); member i carries sequence number
// base+i, so the entry's index is also its tie-breaker.
type run struct {
	entries []runEntry
	next    int // entries[next] is the member the node is keyed on
	base    uint64
	fn      func(any, int)
	arg     any
	free    *run // next run on the simulator's free list
}

// runEntry is one member of a run. It holds no pointers, so filling and
// sorting a run costs no write barriers and recycling it no clearing.
type runEntry struct {
	at Time
	i  int32
}

// EventRef is a generation-stamped handle to a scheduled event. The zero
// value is inert: Cancel and Pending return false. Handles stay safe
// after the event fires — the underlying slot may be recycled for a new
// event, but the generation stamp no longer matches, so a stale Cancel
// can never hit the wrong event.
type EventRef struct {
	e   *event
	gen uint32
}

// live reports whether the handle still refers to its original event.
func (r EventRef) live() bool { return r.e != nil && r.e.gen == r.gen }

// Time reports when the event fires. Zero when the handle is stale.
func (r EventRef) Time() Time {
	if !r.live() {
		return 0
	}
	return r.e.at
}

// Cancel prevents a pending event from firing. Cancelling an event that
// has already fired or been cancelled is a no-op. Returns true if the
// event was pending and is now cancelled.
func (r EventRef) Cancel() bool {
	e := r.e
	if e == nil || e.gen != r.gen || e.cancelled || e.index < 0 {
		return false
	}
	e.cancelled = true
	e.sim.noteCancelled()
	return true
}

// Pending reports whether the event is still queued and not cancelled.
func (r EventRef) Pending() bool {
	return r.live() && !r.e.cancelled && r.e.index >= 0
}

// compactMin is the minimum number of collected cancellations before a
// heap compaction is considered; below it, lazy deletion is cheaper.
const compactMin = 64

// eventChunk is the free-list growth quantum: allocating events in blocks
// keeps pool neighbours adjacent in memory.
const eventChunk = 64

// Simulator is the discrete-event engine. It is not safe for concurrent use;
// the whole simulation is single-threaded by design so that runs are
// deterministic.
type Simulator struct {
	now     Time
	heap    []*event // 4-ary min-heap ordered by (at, seq)
	dead    int      // cancelled events still queued (lazy deletion)
	free    []*event
	runs    *run // free list of run member lists
	waiting int  // queued run members behind their node's head
	seq     uint64
	rng     *rand.Rand
	stopped bool
	events  uint64 // total events executed, for diagnostics

	guard      func() error // cooperative interrupt hook, see SetGuard
	guardEvery uint64
	guardErr   error

	hook func(Time, uint64) // per-event observer, see SetEventHook
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. All model
// randomness must come from here so a seed fully determines a run.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsExecuted returns the number of events that have fired so far.
func (s *Simulator) EventsExecuted() uint64 { return s.events }

// Schedule runs fn after delay. A negative delay is an error in the model;
// it is clamped to zero so the event fires "now" (after already-queued
// events for the current instant).
func (s *Simulator) Schedule(delay Time, fn func()) EventRef {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at the given absolute virtual time. Times in the past are
// clamped to the current instant.
func (s *Simulator) At(at Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: nil event function")
	}
	if at < s.now {
		at = s.now
	}
	e := s.alloc()
	e.at = at
	e.seq = s.seq
	e.fn = fn
	s.seq++
	s.heapPush(e)
	return EventRef{e: e, gen: e.gen}
}

// ScheduleRun behaves exactly like len(delays) back-to-back Schedule
// calls: member i runs fn(arg, i) after delays[i], with the i-th of the
// sequence numbers those calls would have taken, and negative delays are
// clamped to zero. The members share one heap node that holds them
// sorted by (time, seq), so a burst of k events costs one heap insert
// and one sift per member instead of k inserts and k pops, and the
// executed (time, seq) stream is unchanged. Members cannot be cancelled.
// fn is typically a package-level function and arg a pointer from the
// caller's own pool, so scheduling allocates nothing; delays is copied
// and may be reused as soon as ScheduleRun returns.
func (s *Simulator) ScheduleRun(delays []Time, fn func(any, int), arg any) {
	if fn == nil {
		panic("sim: nil event function")
	}
	if len(delays) == 0 {
		return
	}
	r := s.allocRun(len(delays))
	r.fn, r.arg, r.base = fn, arg, s.seq
	s.seq += uint64(len(delays))
	// Stable insertion sort on at: callers pass nearly sorted delays, and
	// stopping at the first entry due no later keeps equal times in index
	// (= seq) order.
	for i, d := range delays {
		at := s.now + max(d, 0)
		j := len(r.entries)
		r.entries = append(r.entries, runEntry{})
		for ; j > 0 && r.entries[j-1].at > at; j-- {
			r.entries[j] = r.entries[j-1]
		}
		r.entries[j] = runEntry{at: at, i: int32(i)}
	}
	s.waiting += len(delays) - 1
	e := s.alloc()
	e.run = r
	e.at, e.seq = r.entries[0].at, r.base+uint64(r.entries[0].i)
	s.heapPush(e)
}

// runMinCap is the smallest member list a run is given, so pooled runs
// rarely regrow as bursts of different sizes cycle through them.
const runMinCap = 16

// allocRun pops a recycled run, or makes one, with room for n members.
func (s *Simulator) allocRun(n int) *run {
	r := s.runs
	if r != nil {
		s.runs, r.free = r.free, nil
	} else {
		r = &run{}
	}
	if cap(r.entries) < n {
		r.entries = make([]runEntry, 0, max(n, runMinCap))
	}
	return r
}

func (s *Simulator) recycleRun(r *run) {
	r.entries = r.entries[:0]
	r.next = 0
	r.fn, r.arg = nil, nil
	r.free, s.runs = s.runs, r
}

// alloc pops a recycled event or grows the pool by one chunk.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	chunk := make([]event, eventChunk)
	for i := range chunk {
		chunk[i].sim = s
		chunk[i].index = -1
	}
	for i := eventChunk - 1; i > 0; i-- {
		s.free = append(s.free, &chunk[i])
	}
	return &chunk[0]
}

// recycle returns a dequeued event to the free list. The generation bump
// invalidates every outstanding EventRef to it.
func (s *Simulator) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.run = nil
	e.cancelled = false
	e.index = -1
	s.free = append(s.free, e)
}

// noteCancelled tracks lazy deletions and compacts the heap once
// cancelled events outnumber live ones, so long runs with heavy timer
// churn cannot bloat the queue.
func (s *Simulator) noteCancelled() {
	s.dead++
	if s.dead >= compactMin && s.dead*2 >= len(s.heap) {
		s.compact()
	}
}

// compact removes every cancelled event from the queue and restores the
// heap invariant in O(n). Relative order of live events is unchanged —
// (at, seq) is a total order — so compaction never affects a run.
func (s *Simulator) compact() {
	live := s.heap[:0]
	for _, e := range s.heap {
		if e.cancelled {
			e.index = -1
			s.recycle(e)
		} else {
			live = append(live, e)
		}
	}
	// Clear the tail so dropped slots don't pin recycled events.
	for i := len(live); i < len(s.heap); i++ {
		s.heap[i] = nil
	}
	s.heap = live
	s.dead = 0
	for i, e := range s.heap {
		e.index = int32(i)
	}
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.down(i)
	}
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// SetGuard installs a cooperative interrupt hook: fn is invoked every
// `every` events during Run (default 1024 when zero), and a non-nil
// return aborts the run cleanly — the error is retained and readable
// via GuardErr, and further Run calls are no-ops. Guards keyed on event
// count or virtual time are deterministic; a wall-clock guard only
// decides whether a run aborts, never what a completed run computes.
func (s *Simulator) SetGuard(every uint64, fn func() error) {
	if every == 0 {
		every = 1024
	}
	s.guardEvery = every
	s.guard = fn
}

// GuardErr returns the error that aborted the run, if the guard fired.
func (s *Simulator) GuardErr() error { return s.guardErr }

// SetEventHook installs an observer invoked for every executed event with
// its fire time and sequence number, just before the event's function
// runs. The (time, seq) stream is a complete fingerprint of a run's
// control flow — hashing it proves two engines execute bit-identical
// schedules. Pass nil to remove the hook.
func (s *Simulator) SetEventHook(fn func(at Time, seq uint64)) { s.hook = fn }

// Run executes events until the queue is empty, Stop is called, or the
// virtual clock would pass until. Events scheduled exactly at until still
// run. On return the clock has advanced to until unless Stop was called.
// It returns the virtual time at which execution stopped.
func (s *Simulator) Run(until Time) Time {
	s.drain(until)
	if !s.stopped && s.guardErr == nil && s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll executes every pending event regardless of time. Unlike Run, the
// clock stops at the last executed event.
func (s *Simulator) RunAll() Time {
	const forever = Time(1<<63 - 1)
	s.drain(forever)
	return s.now
}

func (s *Simulator) drain(until Time) {
	for len(s.heap) > 0 && !s.stopped && s.guardErr == nil {
		e := s.heap[0]
		if e.at > until {
			return
		}
		if e.cancelled {
			s.heapPopMin()
			s.dead--
			s.recycle(e)
			continue
		}
		if e.at < s.now {
			// Heap invariant guarantees monotone time; anything else is a bug.
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, e.at))
		}
		s.now = e.at
		s.events++
		if s.hook != nil {
			s.hook(e.at, e.seq)
		}
		if r := e.run; r != nil {
			s.fireMember(e, r)
		} else {
			// Recycle before invoking so the slot is immediately
			// reusable by whatever the callback schedules; the callback
			// itself was copied out first.
			fn := e.fn
			s.heapPopMin()
			s.recycle(e)
			fn()
		}
		if s.guard != nil && s.events%s.guardEvery == 0 {
			if err := s.guard(); err != nil {
				s.guardErr = err
				return
			}
		}
	}
}

// fireMember runs the head member of run node e, which is at the top of
// the heap. If members remain, the node is re-keyed on the next one and
// sifted down in place (its key only grows); the last member returns the
// node and its run to their pools before the callback runs.
func (s *Simulator) fireMember(e *event, r *run) {
	fn, arg, i := r.fn, r.arg, int(r.entries[r.next].i)
	if r.next++; r.next < len(r.entries) {
		next := r.entries[r.next]
		e.at, e.seq = next.at, r.base+uint64(next.i)
		s.waiting--
		s.down(0)
	} else {
		s.heapPopMin()
		s.recycle(e)
		s.recycleRun(r)
	}
	fn(arg, i)
}

// Pending returns the number of live (not cancelled) queued events. Every
// member of a ScheduleRun that has not fired yet counts as one event.
func (s *Simulator) Pending() int { return len(s.heap) - s.dead + s.waiting }

// QueueLen returns the number of heap nodes, including cancelled events
// still awaiting lazy collection. A ScheduleRun occupies one node however
// many members it has left. Diagnostics only.
func (s *Simulator) QueueLen() int { return len(s.heap) }

// --- 4-ary indexed min-heap, ordered by (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap and keeps the
// children of a node in at most two cache lines, which is where a
// discrete-event simulator spends much of its life. Compared to
// container/heap this is also free of interface dispatch and the any
// boxing in Push/Pop.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) heapPush(e *event) {
	i := len(s.heap)
	s.heap = append(s.heap, e)
	e.index = int32(i)
	s.up(i)
}

// heapPopMin removes and returns the minimum event.
func (s *Simulator) heapPopMin() *event {
	h := s.heap
	e := h[0]
	e.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if n > 0 {
		s.heap[0] = last
		last.index = 0
		s.down(0)
	}
	return e
}

func (s *Simulator) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = int32(i)
		i = p
	}
	h[i] = e
	e.index = int32(i)
}

func (s *Simulator) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = e
	e.index = int32(i)
}

// fix restores the heap invariant for the event at index i after its key
// changed. Exactly one of down/up can apply.
func (s *Simulator) fix(i int) {
	e := s.heap[i]
	s.down(i)
	if e.index == int32(i) {
		s.up(i)
	}
}

// reschedule moves a queued event to a new time, consuming a fresh
// sequence number exactly as cancelling and rescheduling would, so the
// (at, seq) stream — and therefore every run — is bit-identical to the
// cancel-and-reallocate implementation it replaces.
func (s *Simulator) reschedule(e *event, at Time) {
	if at < s.now {
		at = s.now
	}
	e.at = at
	e.seq = s.seq
	s.seq++
	s.fix(int(e.index))
}

// Timer is a restartable single-shot timer bound to a simulator, the
// building block for protocol retransmission/backoff timers.
type Timer struct {
	sim *Simulator
	fn  func()
	ev  EventRef
}

// NewTimer creates a stopped timer that runs fn when it expires.
func NewTimer(s *Simulator, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{sim: s, fn: fn}
}

// Reset (re)arms the timer to fire after delay, cancelling any pending
// expiry. A pending timer is rearmed in place — the queued event slot is
// moved to its new time rather than cancelled and reallocated, so the
// rearm-per-ACK churn of a TCP retransmission timer costs one heap fix
// and no allocation.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	at := t.sim.now + delay
	if e := t.ev.e; e != nil && e.gen == t.ev.gen && !e.cancelled && e.index >= 0 {
		t.sim.reschedule(e, at)
		return
	}
	t.ev = t.sim.At(at, t.fn)
}

// Stop cancels the timer if pending. Returns true if a pending expiry was
// cancelled.
func (t *Timer) Stop() bool {
	ok := t.ev.Cancel()
	t.ev = EventRef{}
	return ok
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// ExpiresAt returns the virtual time at which the timer will fire. Only
// meaningful when Pending.
func (t *Timer) ExpiresAt() Time { return t.ev.Time() }
