package sim_test

import (
	"fmt"

	"llmbw/internal/sim"
)

// worker is a callback machine: it sleeps d, waits at the barrier, and
// reports when it passes. resume is its run method, bound once.
type worker struct {
	name   string
	eng    *sim.Engine
	b      *sim.Barrier
	d      sim.Time
	stage  int // 0: start, 1: slept, 2: passed the barrier
	resume func()
}

func (w *worker) run() {
	switch w.stage {
	case 0:
		w.stage = 1
		w.eng.Schedule(w.d, w.resume)
		return
	case 1:
		w.stage = 2
		if !w.b.Wait(w.eng, w.resume) {
			return // parked: the barrier schedules resume when it passes
		}
	}
	fmt.Printf("%s resumed at %v\n", w.name, w.eng.Now())
}

// Two machines coordinate through a barrier in virtual time.
func Example() {
	eng := sim.New()
	b := &sim.Barrier{N: 2}
	for i, d := range []sim.Time{10 * sim.Millisecond, 30 * sim.Millisecond} {
		w := &worker{name: fmt.Sprintf("worker%d", i), eng: eng, b: b, d: d}
		w.resume = w.run
		eng.Schedule(0, w.resume)
	}
	eng.Run()
	// The last arrival (worker1) passes the barrier inline and continues
	// first; earlier arrivals resume on the next scheduler tick.
	// Output:
	// worker1 resumed at 30.000ms
	// worker0 resumed at 30.000ms
}
