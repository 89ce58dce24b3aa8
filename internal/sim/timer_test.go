package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// timerScript drives one engine through a random program of plain events
// and re-arms of two deadlines, at setup and from inside callbacks. arm
// re-arms deadline j delay from now and disarm cancels it; the script draws
// from its own rng in callback order, so two engines that run the callbacks
// in the same order see the same program.
type timerScript struct {
	e      *Engine
	rng    *rand.Rand
	budget int
	log    strings.Builder
	arm    func(j int, delay Time)
	disarm func(j int)
}

func (s *timerScript) step(name string) {
	fmt.Fprintf(&s.log, "%s@%d ", name, s.e.Now())
	for k := s.rng.Intn(3); k > 0 && s.budget > 0; k-- {
		s.budget--
		// Delays from a small range make same-instant ties common.
		d := Time(s.rng.Intn(4))
		j := s.rng.Intn(2)
		switch s.rng.Intn(5) {
		case 0, 1:
			id := s.budget
			s.e.ScheduleAt(s.e.Now()+d, func() { s.step(fmt.Sprintf("ev%d", id)) })
		case 2, 3:
			s.arm(j, d)
		default:
			s.disarm(j)
		}
	}
}

// runTimerScript runs seed's program with the deadlines as Timers, or, for
// the reference, as a freshly scheduled event per arming whose superseded
// firings are ignored.
func runTimerScript(seed int64, reference bool) string {
	s := &timerScript{e: New(), rng: rand.New(rand.NewSource(seed)), budget: 200}
	if reference {
		var epoch [2]int
		s.arm = func(j int, d Time) {
			epoch[j]++
			mine := epoch[j]
			s.e.Schedule(d, func() {
				if mine == epoch[j] {
					epoch[j]++ // consumed: a later arming starts afresh
					s.step(fmt.Sprintf("timer%d", j))
				}
			})
		}
		s.disarm = func(j int) { epoch[j]++ }
	} else {
		// Registered in reverse, so registration order is no tie-break.
		var tm [2]*Timer
		for j := 1; j >= 0; j-- {
			j := j
			tm[j] = s.e.NewTimer(func() { s.step(fmt.Sprintf("timer%d", j)) })
		}
		s.arm = func(j int, d Time) { tm[j].Reset(d) }
		s.disarm = func(j int) { tm[j].Stop() }
	}
	for i := 0; i < 4; i++ {
		i := i
		s.e.ScheduleAt(Time(i%2), func() { s.step(fmt.Sprintf("seed%d", i)) })
		s.arm(i%2, Time(i/2))
	}
	s.e.Run()
	return s.log.String()
}

// TestTimerOrderMatchesFreshSchedule pins the Timer's ordering contract:
// timers re-armed among ScheduleAt calls and each other at the same
// instants, ties included, fire exactly where freshly scheduled events
// would.
func TestTimerOrderMatchesFreshSchedule(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		got, want := runTimerScript(seed, false), runTimerScript(seed, true)
		if got != want {
			t.Fatalf("seed %d: timer order\n%s\ndiffers from fresh scheduling\n%s", seed, got, want)
		}
	}
}

// TestTimerStopResetAndPending covers the timer's bookkeeping: an armed
// timer counts as pending, Stop disarms it, a re-arm moves it, and a
// negative delay panics.
func TestTimerStopResetAndPending(t *testing.T) {
	e := New()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	if e.Pending() != 0 {
		t.Fatalf("disarmed timer pending: %d", e.Pending())
	}
	tm.Reset(10)
	tm.Reset(20) // moves the firing, does not add one
	if e.Pending() != 1 {
		t.Fatalf("armed timer: pending = %d, want 1", e.Pending())
	}
	if end := e.RunUntil(15); end != 15 || fired != 0 {
		t.Fatalf("RunUntil(15) = %v with %d firings, want 15 and 0 (work remains)", end, fired)
	}
	if end := e.Run(); end != 20 || fired != 1 {
		t.Fatalf("Run = %v with %d firings, want 20 and 1", end, fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("fired timer still pending: %d", e.Pending())
	}
	tm.Reset(5)
	tm.Stop()
	tm.Stop() // idempotent
	if e.Pending() != 0 {
		t.Fatalf("stopped timer pending: %d", e.Pending())
	}
	if end := e.Run(); end != 20 || fired != 1 {
		t.Fatalf("Run after Stop = %v with %d firings, want 20 and 1", end, fired)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative timer delay did not panic")
			}
		}()
		tm.Reset(-1)
	}()
}

// TestTimerOnlyShardNotDrained: on a sharded engine, a shard whose only
// pending item is an armed timer must be neither reported as drained nor
// skipped, under serial merge and parallel windows alike. The timer's
// callback injects into the other shard, whose delivery must run too.
func TestTimerOnlyShardNotDrained(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		se := NewSharded(2, 10)
		var log []string
		tm := se.Shard(1).NewTimer(func() {
			log = append(log, fmt.Sprintf("timer@%d", se.Shard(1).Now()))
			se.Inject(1, 0, 10, func() { log = append(log, fmt.Sprintf("landed@%d", se.Shard(0).Now())) })
		})
		tm.Reset(50)
		if p := se.Pending(); p != 1 {
			t.Fatalf("parallel=%v: pending = %d, want 1", parallel, p)
		}
		if end := se.RunUntil(30); end != 30 {
			t.Errorf("parallel=%v: RunUntil(30) = %v, want 30 (a timer is pending)", parallel, end)
		}
		if end := se.Run(); end != 60 {
			t.Errorf("parallel=%v: Run = %v, want 60", parallel, end)
		}
		if got := strings.Join(log, " "); got != "timer@50 landed@60" {
			t.Errorf("parallel=%v: log %q, want %q", parallel, got, "timer@50 landed@60")
		}
		se.Close()
	}
}
