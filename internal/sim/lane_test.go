package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQueue is the lane tests' reference engine: every pending item, armed
// timers included, in one slice kept sorted by (at, seq), with no lane. It
// implements the part of the Engine contract laneScript drives, with the
// same sequence numbering: each ScheduleAt and each timer reset takes the
// next seq.
type refQueue struct {
	now     Time
	seq     int64
	items   []refItem
	stopped bool
}

type refItem struct {
	at    Time
	seq   int64
	fn    func()
	timer int // 1 + the owning timer's index; 0 for a plain event
}

func (q *refQueue) Now() Time    { return q.now }
func (q *refQueue) Stop()        { q.stopped = true }
func (q *refQueue) Pending() int { return len(q.items) }

func (q *refQueue) ScheduleAt(t Time, fn func()) {
	if t < q.now {
		panic("reference: schedule in the past")
	}
	q.seq++
	q.insert(refItem{at: t, seq: q.seq, fn: fn})
}

func (q *refQueue) insert(it refItem) {
	i := sort.Search(len(q.items), func(i int) bool {
		o := q.items[i]
		return o.at > it.at || (o.at == it.at && o.seq > it.seq)
	})
	q.items = append(q.items, refItem{})
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = it
}

// cancel removes timer id's pending firing, if any.
func (q *refQueue) cancel(id int) {
	for i, it := range q.items {
		if it.timer == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return
		}
	}
}

func (q *refQueue) RunUntil(deadline Time) Time {
	q.stopped = false
	for !q.stopped && len(q.items) > 0 {
		it := q.items[0]
		if it.at > deadline {
			if q.now < deadline {
				q.now = deadline
			}
			return q.now
		}
		q.items = append(q.items[:0], q.items[1:]...)
		q.now = it.at
		it.fn()
	}
	return q.now
}

// laneQueue is what laneScript drives: the Engine or the reference.
type laneQueue interface {
	Now() Time
	ScheduleAt(t Time, fn func())
	RunUntil(deadline Time) Time
	Stop()
	Pending() int
}

// laneScript drives one queue through a random program that makes
// same-instant scheduling dominant: ScheduleAt(now) from callbacks and from
// between runs, later events, resets and stops of two timers (zero delays
// included), Stop in the middle of an instant, and resumed RunUntil calls
// whose deadline sometimes lies before the clock (which then stays put). The script draws from its
// own rng in execution order, so two queues that run the callbacks in the
// same order see the same program.
type laneScript struct {
	q      laneQueue
	rng    *rand.Rand
	budget int
	log    strings.Builder
	reset  [2]func(Time)
	stop   [2]func()
}

func (s *laneScript) event(name string) func() {
	return func() { s.step(name) }
}

func (s *laneScript) step(name string) {
	fmt.Fprintf(&s.log, "%s@%d ", name, s.q.Now())
	for k := s.rng.Intn(4); k > 0 && s.budget > 0; k-- {
		s.budget--
		id := s.budget
		switch s.rng.Intn(8) {
		case 0, 1, 2:
			s.q.ScheduleAt(s.q.Now(), s.event(fmt.Sprintf("now%d", id)))
		case 3, 4:
			s.q.ScheduleAt(s.q.Now()+1+Time(s.rng.Intn(3)), s.event(fmt.Sprintf("later%d", id)))
		case 5:
			s.reset[s.rng.Intn(2)](Time(s.rng.Intn(3)))
		case 6:
			s.stop[s.rng.Intn(2)]()
		default:
			s.q.Stop()
		}
	}
}

// runLaneScript runs seed's program on the Engine, or on the reference.
func runLaneScript(seed int64, reference bool) string {
	s := &laneScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
	if reference {
		q := &refQueue{}
		s.q = q
		for j := range s.reset {
			id := j + 1
			fire := s.event(fmt.Sprintf("timer%d", j))
			s.reset[j] = func(d Time) {
				q.cancel(id)
				q.seq++
				q.insert(refItem{at: q.now + d, seq: q.seq, timer: id, fn: fire})
			}
			s.stop[j] = func() { q.cancel(id) }
		}
	} else {
		e := New()
		s.q = e
		for j := range s.reset {
			tm := e.NewTimer(s.event(fmt.Sprintf("timer%d", j)))
			s.reset[j], s.stop[j] = tm.Reset, tm.Stop
		}
	}
	for i := 0; i < 4; i++ {
		s.q.ScheduleAt(Time(i%2), s.event(fmt.Sprintf("seed%d", i)))
	}
	for round := 0; round < 2000 && s.q.Pending() > 0; round++ {
		deadline := s.q.Now() + Time(s.rng.Intn(6)) - 1
		end := s.q.RunUntil(deadline)
		fmt.Fprintf(&s.log, "| run(%d)=%d pending=%d | ", deadline, end, s.q.Pending())
		if s.budget > 0 && s.rng.Intn(2) == 0 {
			s.budget--
			s.q.ScheduleAt(s.q.Now(), s.event(fmt.Sprintf("outside%d", s.budget)))
		}
	}
	return s.log.String()
}

// TestLaneOrderMatchesSortedReference pins the same-instant lane to the
// single-queue order: over random programs dominated by zero-delay events,
// with timers, mid-instant stops, resumed runs and deadlines below the
// clock, the engine runs every event and timer exactly where a
// sorted (at, seq) queue runs it, and reports the same clock and pending
// counts after every RunUntil.
func TestLaneOrderMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		got, want := runLaneScript(seed, false), runLaneScript(seed, true)
		if got != want {
			t.Fatalf("seed %d: engine order\n%s\ndiffers from the sorted reference\n%s", seed, got, want)
		}
	}
}

// TestLaneInjectionAfterLocalInstant: a cross-shard delivery carries a
// sequence number above every local one, so at its instant it runs after
// all of the target's local events there — heap events scheduled earlier
// and zero-delay events spawned during the instant alike — and zero-delay
// events it spawns itself run right after it. The first case delivers the
// injection inside the run; the second stops the target in the middle of
// the instant and injects at the target's current clock before resuming.
// Both must hold under serial merge and parallel windows.
func TestLaneInjectionAfterLocalInstant(t *testing.T) {
	const (
		L = Time(10)
		T = 2 * L
	)
	for _, stopMidInstant := range []bool{false, true} {
		for _, parallel := range []bool{false, true} {
			setSharded(t, parallel)
			se := NewSharded(2, L)
			sh0, sh1 := se.Shard(0), se.Shard(1)
			var log []string
			rec := func(name string) func() {
				return func() { log = append(log, fmt.Sprintf("%s@%d", name, sh1.Now())) }
			}
			inject := func() {
				se.Inject(0, 1, L, func() {
					rec("inj")()
					sh1.Schedule(0, rec("inj-child"))
				})
			}
			if stopMidInstant {
				sh0.ScheduleAt(T-L, func() {})
			} else {
				sh0.ScheduleAt(T-L, inject)
			}
			sh1.ScheduleAt(T, func() {
				rec("local")()
				sh1.Schedule(0, func() {
					rec("child1")()
					sh1.Schedule(0, rec("grandchild"))
				})
				sh1.Schedule(0, rec("child2"))
				if stopMidInstant {
					sh1.Stop()
				}
			})
			// Scheduled at T-1 for T, so it waits in the heap with a seq
			// below the children's.
			sh1.ScheduleAt(T-1, func() { sh1.ScheduleAt(T, rec("late-local")) })
			se.Run()
			if stopMidInstant {
				if sh1.Now() != T || sh0.Now()+L != T {
					t.Fatalf("parallel=%v: stopped with clocks %v and %v, want %v and %v",
						parallel, sh0.Now(), sh1.Now(), T-L, T)
				}
				inject()
				se.Run()
			}
			got := strings.Join(log, " ")
			want := "local@20 late-local@20 child1@20 child2@20 grandchild@20 inj@20 inj-child@20"
			if got != want {
				t.Errorf("stop=%v parallel=%v: order %q, want %q", stopMidInstant, parallel, got, want)
			}
			se.Close()
		}
	}
}

// BenchmarkSimEngineSameInstant measures bursts of zero-delay events beside
// a populated heap: 1,024 far-future events keep the heap at working depth
// while each op schedules one event a nanosecond ahead that fans out 64
// same-instant events. The lane keeps the burst out of the heap, and the
// steady state allocates nothing.
func BenchmarkSimEngineSameInstant(b *testing.B) {
	e := New()
	noop := func() {}
	for i := 0; i < 1024; i++ {
		e.ScheduleAt(Second+Time(i), noop)
	}
	fanout := func() {
		for k := 0; k < 64; k++ {
			e.Schedule(0, noop)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fanout)
		e.RunUntil(e.Now() + 1)
	}
}
