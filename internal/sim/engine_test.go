package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{Seconds(1.5), "1.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := Seconds(2.5).ToSeconds(); got != 2.5 {
		t.Fatalf("round trip = %v, want 2.5", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{30, 10, 20, 10} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(100, func() { fired++ })
	end := e.RunUntil(50)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if end != 50 {
		t.Errorf("end = %v, want 50", end)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("after full run fired = %d, want 2", fired)
	}
}

// Regression for the RunUntil restructure: when the queue drains before the
// deadline the clock must stay at the last executed event, not jump to the
// deadline.
func TestRunUntilDrainedEarlyKeepsEventTime(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	if end := e.RunUntil(1000); end != 20 {
		t.Errorf("drained-early RunUntil = %v, want 20 (last event time)", end)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %v after drain, want 20", e.Now())
	}
}

// Regression companion: when events remain beyond the deadline the clock must
// land exactly on the deadline and the later events stay pending.
func TestRunUntilReachedDeadlineJumpsClock(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Schedule(2000, func() {})
	if end := e.RunUntil(1000); end != 1000 {
		t.Errorf("reached-deadline RunUntil = %v, want 1000", end)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	// An empty queue below the deadline leaves the clock untouched.
	if end := e.RunUntil(3000); end != 2000 {
		t.Errorf("second RunUntil = %v, want 2000", end)
	}
}

// The clock never moves back: a deadline below it runs nothing and leaves
// it in place, so scheduling between that deadline and the clock is
// scheduling in the past, and events still run in time order.
func TestRunUntilNeverMovesClockBack(t *testing.T) {
	e := New()
	var ran []Time
	rec := func() { ran = append(ran, e.Now()) }
	e.ScheduleAt(5, rec)
	e.ScheduleAt(10, rec)
	if end := e.RunUntil(5); end != 5 {
		t.Fatalf("RunUntil(5) = %v, want 5", end)
	}
	if end := e.RunUntil(3); end != 5 || e.Now() != 5 {
		t.Fatalf("RunUntil(3) = %v with the clock at %v, want both 5", end, e.Now())
	}
	past := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		e.ScheduleAt(4, rec)
		return false
	}
	if !past() {
		t.Error("ScheduleAt(4) after the clock reached 5 did not panic")
	}
	e.ScheduleAt(5, rec)
	e.Run()
	if want := []Time{5, 5, 10}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("events ran at %v, want %v", ran, want)
	}
}

// The event queue must execute equal-time events in schedule order and
// distinct times in ascending order — i.e. global (time, seq) order — for any
// interleaving of pushes and pops. This pins the 4-ary value-heap replacement
// of container/heap to the exact semantics golden files depend on.
func TestHeapOrderMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := New()
		type stamp struct {
			at  Time
			seq int
		}
		var want []stamp
		var got []stamp
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(20))
			s := stamp{at: at, seq: i}
			want = append(want, s)
			e.Schedule(at, func() { got = append(got, stamp{at: e.Now(), seq: s.seq}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRunReturnsLastEventTime(t *testing.T) {
	e := New()
	e.Schedule(42, func() {})
	if end := e.Run(); end != 42 {
		t.Errorf("end = %v, want 42", end)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 after Stop", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

// Property: for any set of random delays, events execute in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var got []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { got = append(got, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// party is a callback machine for the coordination tests. It runs its steps
// in order — a sleep of d when d > 0, an arrival through arrive when d == 0
// — and logs the clock each time an arrival passes, inline or resumed.
type party struct {
	e      *Engine
	steps  []Time
	pc     int
	arrive func(next func()) bool
	parked bool // waiting for an arrival to pass
	passed []Time
	resume func()
}

// startParty binds a party and schedules its start at the current instant.
func startParty(e *Engine, arrive func(next func()) bool, steps ...Time) *party {
	p := &party{e: e, steps: steps, arrive: arrive}
	p.resume = p.run
	e.Schedule(0, p.resume)
	return p
}

func (p *party) run() {
	if p.parked {
		p.parked = false
		p.passed = append(p.passed, p.e.Now())
	}
	for p.pc < len(p.steps) {
		d := p.steps[p.pc]
		p.pc++
		if d > 0 {
			p.e.Schedule(d, p.resume)
			return
		}
		if !p.arrive(p.resume) {
			p.parked = true
			return
		}
		p.passed = append(p.passed, p.e.Now())
	}
}

func TestBarrierSynchronizesAll(t *testing.T) {
	e := New()
	b := &Barrier{N: 4}
	wait := func(next func()) bool { return b.Wait(e, next) }
	var parties []*party
	for i := 0; i < 4; i++ {
		parties = append(parties, startParty(e, wait, Time((i+1)*10), 0))
	}
	e.Run()
	var resumed []Time
	for _, p := range parties {
		resumed = append(resumed, p.passed...)
	}
	if len(resumed) != 4 {
		t.Fatalf("resumed %d parties, want 4", len(resumed))
	}
	for _, at := range resumed {
		if at != 40 {
			t.Errorf("party resumed at %v, want 40 (last arrival)", at)
		}
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	e := New()
	b := &Barrier{N: 2}
	wait := func(next func()) bool { return b.Wait(e, next) }
	var parties []*party
	for i := 0; i < 2; i++ {
		var steps []Time
		for r := 0; r < 3; r++ {
			steps = append(steps, Time(i+1), 0)
		}
		parties = append(parties, startParty(e, wait, steps...))
	}
	e.Run()
	if rounds := []int{len(parties[0].passed), len(parties[1].passed)}; rounds[0] != 3 || rounds[1] != 3 {
		t.Errorf("rounds = %v, want [3 3]", rounds)
	}
}

func TestRendezvousLeaderRunsOnce(t *testing.T) {
	e := New()
	r := &Rendezvous{N: 3}
	leaders := 0
	do := func(next func()) bool {
		return r.Do(e, func(done func()) {
			leaders++
			e.Schedule(50, done)
		}, next)
	}
	var parties []*party
	for i := 0; i < 3; i++ {
		parties = append(parties, startParty(e, do, 0))
	}
	e.Run()
	if leaders != 1 {
		t.Errorf("leader ran %d times, want 1", leaders)
	}
	for _, p := range parties {
		if len(p.passed) != 1 || p.passed[0] != 50 {
			t.Errorf("party resumed at %v, want [50]", p.passed)
		}
	}
}

func TestRendezvousSingleParty(t *testing.T) {
	e := New()
	r := &Rendezvous{N: 1}
	p := startParty(e, func(next func()) bool {
		return r.Do(e, func(done func()) { e.Schedule(9, done) }, next)
	}, 0)
	e.Run()
	if len(p.passed) != 1 || p.passed[0] != 9 {
		t.Errorf("resumed at %v, want [9]", p.passed)
	}
}

func TestRendezvousReusable(t *testing.T) {
	e := New()
	r := &Rendezvous{N: 2}
	count := 0
	do := func(next func()) bool {
		return r.Do(e, func(done func()) {
			count++
			e.Schedule(1, done)
		}, next)
	}
	for i := 0; i < 2; i++ {
		startParty(e, do, 0, 0, 0, 0)
	}
	e.Run()
	if count != 4 {
		t.Errorf("leader ran %d times, want 4", count)
	}
}

// A leader whose done fires before it returns lets the last arrival pass
// inline, as the barrier's last arrival does; the parked parties resume at
// the same instant.
func TestRendezvousInlineLeader(t *testing.T) {
	e := New()
	r := &Rendezvous{N: 2}
	do := func(next func()) bool {
		return r.Do(e, func(done func()) { done() }, next)
	}
	a := startParty(e, do, 0)
	b := startParty(e, do, 5, 0)
	e.Run()
	if len(a.passed) != 1 || a.passed[0] != 5 || len(b.passed) != 1 || b.passed[0] != 5 {
		t.Errorf("passed at %v and %v, want [5] and [5]", a.passed, b.passed)
	}
}
