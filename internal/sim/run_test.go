package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ScheduleRun must be indistinguishable from scheduling each member as
// its own event. Every test here plays one script twice — once with
// bursts as runs, once with the reference that schedules each member
// separately — and compares the executed (time, seq, member) streams.

// burstFn schedules fire(i) after delays[i] for every member i.
type burstFn func(s *Simulator, delays []Time, fire func(i int))

func asRun(s *Simulator, delays []Time, fire func(int)) {
	s.ScheduleRun(delays, func(a any, i int) { a.(func(int))(i) }, fire)
}

func asEvents(s *Simulator, delays []Time, fire func(int)) {
	for i, d := range delays {
		s.Schedule(d, func() { fire(i) })
	}
}

// firing is one executed event: its hook key and the script's label.
type firing struct {
	At     Time
	Seq    uint64
	Label  string
	Member int
}

// recorder captures the (time, seq) the hook reports and pairs it with
// the label of the callback that runs next.
type recorder struct {
	s       *Simulator
	at      Time
	seq     uint64
	firings []firing
}

func newRecorder(s *Simulator) *recorder {
	r := &recorder{s: s}
	s.SetEventHook(func(at Time, seq uint64) { r.at, r.seq = at, seq })
	return r
}

func (r *recorder) fire(label string, member int) {
	if r.s.Now() != r.at {
		panic(fmt.Sprintf("%s/%d ran at %v, hook saw %v", label, member, r.s.Now(), r.at))
	}
	r.firings = append(r.firings, firing{r.at, r.seq, label, member})
}

// note records a top-level observation as a pseudo-firing.
func (r *recorder) note(label string, v int) {
	r.firings = append(r.firings, firing{r.s.Now(), r.s.seq, label, v})
}

// TestScheduleRunCases pins the corner cases of the sorted run against
// the one-event-per-member reference and against the expected order.
func TestScheduleRunCases(t *testing.T) {
	errGuard := errors.New("guard")
	cases := []struct {
		name   string
		script func(s *Simulator, burst burstFn, r *recorder)
		want   []int // members in firing order, plain events as -1
	}{
		{
			// Members due at the same instant as plain events keep
			// their schedule order on both sides of the run.
			name: "zero-delay ties",
			script: func(s *Simulator, burst burstFn, r *recorder) {
				s.Schedule(Millisecond, func() {
					r.fire("outer", -1)
					s.Schedule(0, func() { r.fire("before", -1) })
					burst(s, []Time{0, 0, -Millisecond, 0}, func(i int) { r.fire("run", i) })
					s.Schedule(0, func() { r.fire("after", -1) })
				})
				s.RunAll()
			},
			want: []int{-1, -1, 0, 1, 2, 3, -1},
		},
		{
			// A member whose delay exceeds a later member's fires after
			// it; equal delays fire in index order.
			name: "unsorted input",
			script: func(s *Simulator, burst burstFn, r *recorder) {
				burst(s, []Time{5, 1, 3, 1, 0}, func(i int) { r.fire("run", i) })
				s.Schedule(2, func() { r.fire("plain", -1) })
				s.RunAll()
			},
			want: []int{4, 1, 3, -1, 2, 0},
		},
		{
			// Run(until) can stop between two members of one run; the
			// rest stay pending and fire on the next Run.
			name: "run until mid-run",
			script: func(s *Simulator, burst burstFn, r *recorder) {
				burst(s, []Time{1, 2, 3, 4}, func(i int) { r.fire("run", i) })
				s.Run(2)
				r.note("pending", s.Pending())
				s.Run(10)
				r.note("pending", s.Pending())
			},
			want: []int{0, 1, 2, 2, 3, 0},
		},
		{
			// Stop inside a member ends Run after that member.
			name: "stop inside member",
			script: func(s *Simulator, burst burstFn, r *recorder) {
				burst(s, []Time{1, 2, 3}, func(i int) {
					r.fire("run", i)
					if i == 1 {
						s.Stop()
					}
				})
				s.RunAll()
				r.note("pending", s.Pending())
			},
			want: []int{0, 1, 1},
		},
		{
			// A guard error raised after a member aborts the run there.
			name: "guard error inside member",
			script: func(s *Simulator, burst burstFn, r *recorder) {
				s.SetGuard(1, func() error {
					if s.EventsExecuted() == 2 {
						return errGuard
					}
					return nil
				})
				burst(s, []Time{1, 2, 3}, func(i int) { r.fire("run", i) })
				s.Run(10)
				s.Run(20)
				r.note("pending", s.Pending())
				if !errors.Is(s.GuardErr(), errGuard) {
					r.note("no guard error", 0)
				}
			},
			want: []int{0, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			play := func(burst burstFn) ([]firing, uint64) {
				s := New(1)
				r := newRecorder(s)
				tc.script(s, burst, r)
				return r.firings, s.EventsExecuted()
			}
			got, gotN := play(asRun)
			ref, refN := play(asEvents)
			if !reflect.DeepEqual(got, ref) || gotN != refN {
				t.Fatalf("run stream differs from reference:\n run %v (%d events)\n ref %v (%d events)", got, gotN, ref, refN)
			}
			var members []int
			for _, f := range got {
				members = append(members, f.Member)
			}
			if !reflect.DeepEqual(members, tc.want) {
				t.Fatalf("members fired %v, want %v", members, tc.want)
			}
		})
	}
}

// playScript runs a random program drawn from seed and ops: schedules,
// bursts, timer resets and stops, cancellations, Run(until) splits, a
// guard and Stop, at top level and from inside events.
func playScript(burst burstFn, seed int64, ops []byte) ([]firing, uint64) {
	s := New(seed)
	r := newRecorder(s)
	rng := rand.New(rand.NewSource(seed))
	budget := 400 // schedules left, so every program terminates
	var refs []EventRef
	var timers []*Timer
	var act func()
	delay := func() Time { return Time(rng.Intn(8)-1) * Microsecond }
	actions := []func(){
		func() { // plain event
			refs = append(refs, s.Schedule(delay(), func() { r.fire("plain", -1); act() }))
		},
		func() { // burst
			delays := make([]Time, 1+rng.Intn(6))
			for i := range delays {
				delays[i] = delay()
			}
			id := fmt.Sprint("run", budget)
			burst(s, delays, func(i int) { r.fire(id, i); act() })
		},
		func() { // timer reset
			timers[rng.Intn(len(timers))].Reset(delay())
		},
		func() { // timer stop
			timers[rng.Intn(len(timers))].Stop()
		},
		func() { // cancel a plain event, possibly fired already
			if len(refs) > 0 {
				refs[rng.Intn(len(refs))].Cancel()
			}
		},
	}
	act = func() {
		for n := rng.Intn(3); n > 0 && budget > 0; n-- {
			budget--
			actions[rng.Intn(len(actions))]()
		}
		if rng.Intn(200) == 0 {
			s.Stop()
		}
	}
	for i := 0; i < 3; i++ {
		label := fmt.Sprint("timer", i)
		timers = append(timers, NewTimer(s, func() { r.fire(label, -1); act() }))
	}
	for _, op := range ops {
		switch op % 8 {
		case 0, 1, 2, 3, 4:
			if budget > 0 {
				budget--
				actions[op%8]()
			}
		case 5:
			s.Run(s.Now() + Time(op/8)*Microsecond/4)
		case 6:
			limit := s.EventsExecuted() + uint64(op/8)
			s.SetGuard(uint64(1+op/64), func() error {
				if s.EventsExecuted() >= limit {
					return errors.New("guard")
				}
				return nil
			})
		case 7:
			act()
		}
		r.note("pending", s.Pending())
	}
	s.RunAll()
	r.note("pending", s.Pending())
	return r.firings, s.EventsExecuted()
}

func checkScript(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got, gotN := playScript(asRun, seed, ops)
	ref, refN := playScript(asEvents, seed, ops)
	if gotN != refN {
		t.Fatalf("EventsExecuted %d with runs, %d with the reference", gotN, refN)
	}
	for i := range min(len(got), len(ref)) {
		if got[i] != ref[i] {
			t.Fatalf("step %d: run %+v, reference %+v", i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("run stream has %d steps, reference %d", len(got), len(ref))
	}
}

func FuzzScheduleRun(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 7, 5, 7, 13, 2, 3, 4, 7, 255})
	f.Add(int64(2), []byte{1, 1, 1, 6, 7, 7, 7, 5, 5})
	f.Add(int64(3), []byte{14, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(checkScript)
}

// TestScheduleRunRandomScripts runs a fixed sample of random scripts on
// every test run, beyond the fuzz seed corpus.
func TestScheduleRunRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 200; seed++ {
		ops := make([]byte, 1+rng.Intn(24))
		rng.Read(ops)
		checkScript(t, seed, ops)
	}
}
