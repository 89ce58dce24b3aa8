// Package sim provides a deterministic discrete-event simulation engine with
// cooperative processes. It is the substrate on which the cluster fabric,
// training strategies and stress tests run.
//
// The engine owns a virtual clock measured in nanoseconds. Events are
// callbacks scheduled at absolute virtual times and executed in (time, seq)
// order, so runs are fully deterministic. Events scheduled for the current
// instant wait in a FIFO lane beside the heap, since they run in schedule
// order anyway; the run loop takes the least of heap root, lane head and
// earliest timer, which is the same total order one heap would give. A
// re-armable Timer takes its place in that order exactly as a freshly
// scheduled event would, without leaving superseded firings behind.
// Processes (Proc) are goroutines
// that interleave cooperatively with the event loop: at any moment either the
// engine or exactly one process is running, which keeps the simulation
// race-free without locks in model code.
package sim

import (
	"fmt"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// ToSeconds converts t to floating-point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// String renders the time with a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.ToSeconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq int64
	fn  func()
}

// less orders events by (time, seq): same-time events run in schedule order.
func (a event) less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapArity is the branching factor of the event queue. A 4-ary heap is
// shallower than a binary one and keeps sibling comparisons within one or two
// cache lines, which matters because scheduling is the simulator's innermost
// loop. Events are stored by value in a single slice, so the queue performs
// no per-event allocation: popped slots are reused by later pushes and the
// slice itself is the free list.
const heapArity = 4

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Engine struct {
	now    Time
	events []event // heapArity-ary min-heap ordered by event.less
	seq    int64

	// lane holds, from laneHead on, events scheduled for the instant at
	// which they were scheduled. They share one timestamp and arrive in seq
	// order, so the FIFO is already sorted and its head is its least event;
	// an event for the current instant goes to the heap instead while the
	// lane still holds another instant (after RunUntil moved the clock
	// back to an earlier deadline). The lane rewinds to empty whenever its
	// last event is taken, so its backing reaches steady capacity.
	lane     []event
	laneHead int

	// ctl is signalled by a process whenever it blocks or terminates,
	// returning control to the event loop.
	ctl chan struct{}

	procs   int // live processes (for leak detection)
	stopped bool

	// Re-armable timers live outside the heap. timers registers every
	// timer made by NewTimer, armed counts the armed ones, and first caches
	// the earliest armed timer by (at, seq) — nil when none is armed — so
	// the run loop compares the heap root and lane head against one cached
	// entry.
	timers []*Timer
	armed  int
	first  *Timer
}

// push inserts ev into the heap.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev) //lint:allow steady-alloc — pop truncates, not nils: the heap's backing reaches steady capacity
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.less(e.events[parent]) {
			break
		}
		e.events[i] = e.events[parent]
		i = parent
	}
	e.events[i] = ev
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (e *Engine) pop() event {
	root := e.events[0]
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = event{} // release the fn reference for the GC
	e.events = e.events[:n]
	if n > 0 {
		i := 0
		for {
			first := heapArity*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + heapArity
			if end > n {
				end = n
			}
			for j := first + 1; j < end; j++ {
				if e.events[j].less(e.events[min]) {
					min = j
				}
			}
			if !e.events[min].less(last) {
				break
			}
			e.events[i] = e.events[min]
			i = min
		}
		e.events[i] = last
	}
	return root
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{ctl: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ScheduleAt registers fn to run at absolute virtual time t. Scheduling in
// the past panics: it would make the clock non-monotonic.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	// A later instant, or the current one while the lane still holds
	// another, goes to the heap.
	if t > e.now || (e.laneHead < len(e.lane) && e.lane[e.laneHead].at != t) {
		e.push(event{at: t, seq: e.seq, fn: fn})
		return
	}
	e.lane = append(e.lane, event{at: t, seq: e.seq, fn: fn}) //lint:allow steady-alloc — the lane rewinds to [:0] when drained: its backing reaches steady capacity
}

// Schedule registers fn to run delay nanoseconds from now.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// Stop makes Run return after the current event completes. Pending events are
// kept; a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(1<<62 - 1) }

// RunUntil executes events with timestamps <= deadline. It returns the final
// virtual time, which is the deadline when work remains beyond it, or the
// time of the last executed event when the queue drained (or Stop was called)
// first — the clock does not jump to the deadline when the simulation simply
// ran out of work, so callers can distinguish the two outcomes.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	if e.runThrough(deadline) {
		// Reached the horizon with work still queued: jump the clock
		// to the deadline and leave the remaining events pending.
		e.now = deadline
	}
	// Drained early or stopped: the clock stays at the last executed event.
	return e.now
}

// runThrough executes events and timers with timestamps <= last in (at,
// seq) order until Stop. It reports whether it halted at pending work
// beyond last, rather than on Stop or an empty queue.
func (e *Engine) runThrough(last Time) bool {
	for !e.stopped {
		if e.laneHead == len(e.lane) && e.first == nil {
			// Heap only (a chain of delayed events between instants):
			// the root is the least item, without the three-way choice.
			if len(e.events) == 0 {
				return false
			}
			if e.events[0].at > last {
				return true
			}
			ev := e.pop()
			e.now = ev.at
			ev.fn()
			continue
		}
		// The lane or a timer is pending, so least sets ev or t.
		ev, fromLane, t := e.least()
		if (t != nil && t.at > last) || (t == nil && ev.at > last) {
			return true
		}
		e.exec(ev, fromLane, t)
	}
	return false
}

// least finds the least pending item by (at, seq): t is the earliest armed
// timer when it precedes every event, otherwise ev is the lesser of heap
// root and lane head, fromLane telling which. Nothing is set when nothing is
// pending.
func (e *Engine) least() (ev *event, fromLane bool, t *Timer) {
	if len(e.events) > 0 {
		ev = &e.events[0]
	}
	if h := e.laneHead; h < len(e.lane) && (ev == nil || e.lane[h].less(*ev)) {
		ev, fromLane = &e.lane[h], true
	}
	if t = e.first; t != nil && (ev == nil || t.precedes(ev)) {
		return nil, false, t
	}
	return ev, fromLane, nil
}

// exec runs the item least found: fires the timer, or takes the event off
// the lane or the heap and runs it at its time.
func (e *Engine) exec(ev *event, fromLane bool, t *Timer) {
	if t != nil {
		e.fire(t)
		return
	}
	run := *ev
	if fromLane {
		*ev = event{} // release the fn reference for the GC
		e.laneHead++
		if e.laneHead == len(e.lane) {
			e.lane, e.laneHead = e.lane[:0], 0
		}
	} else {
		e.pop()
	}
	e.now = run.at
	run.fn()
}

// peek returns the timestamp of the next pending event or armed timer; ok is
// false when nothing is pending.
func (e *Engine) peek() (Time, bool) {
	ev, _, t := e.least()
	switch {
	case t != nil:
		return t.at, true
	case ev != nil:
		return ev.at, true
	}
	return 0, false
}

// runNext executes the next pending event or armed timer. Something must be
// pending.
func (e *Engine) runNext() { e.exec(e.least()) }

// runWindow executes events with timestamps strictly below bound, leaving
// later events pending. Unlike RunUntil it never jumps the clock to the
// bound: the clock ends at the last executed event (unchanged when none ran).
// It is the building block of the sharded engine's conservative windows,
// where the bound is a horizon no cross-shard influence can penetrate.
func (e *Engine) runWindow(bound Time) { e.runThrough(bound - 1) }

// inject enqueues a cross-shard delivery. The sequence number comes from the
// sharded engine's deterministic injection numbering (a band above every
// locally assigned sequence) rather than this engine's own counter, so the
// delivery order is a function of the injection's content, not of which
// execution mode or interleaving produced it.
func (e *Engine) inject(at Time, seq int64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: cross-shard injection at %v before shard clock %v (lookahead violation)", at, e.now))
	}
	e.push(event{at: at, seq: seq, fn: fn})
}

// Pending reports the number of scheduled events plus armed timers.
func (e *Engine) Pending() int { return len(e.events) + len(e.lane) - e.laneHead + e.armed }

// LiveProcs reports the number of processes that have started and not yet
// returned. A nonzero value after Run means processes are deadlocked waiting
// for wakeups that never came.
func (e *Engine) LiveProcs() int { return e.procs }
