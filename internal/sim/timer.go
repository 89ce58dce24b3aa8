package sim

import "fmt"

// Timer is a re-armable one-shot event: a callback with at most one pending
// firing, whose time can be moved in place. Reset takes the engine's next
// sequence number exactly as Schedule does, so an armed timer holds the
// (time, seq) slot a freshly scheduled event would, and every other event
// keeps the sequence number it would have had. A model that re-arms one
// deadline on every state change (a fabric's next flow completion) thus
// runs in the same order as scheduling a fresh event per change and
// ignoring the superseded ones, without carrying those through the heap.
//
// A timer belongs to the engine that made it and must be reset, stopped
// and fired from that engine's context.
type Timer struct {
	eng   *Engine
	fn    func()
	at    Time
	seq   int64
	armed bool
}

// NewTimer returns a disarmed timer that runs fn when it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// Reset arms the timer to fire delay nanoseconds from now, replacing any
// pending firing.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", delay))
	}
	e := t.eng
	e.seq++
	t.at, t.seq = e.now+delay, e.seq
	if !t.armed {
		t.armed = true
		e.armed++
	}
	switch {
	case e.first == t:
		// It may have moved past another armed timer.
		e.first = e.earliestTimer()
	case e.first == nil || t.before(e.first):
		e.first = t
	}
}

// Stop disarms the timer; its pending firing, if any, never runs.
func (t *Timer) Stop() {
	if t.armed {
		t.eng.disarm(t)
	}
}

// before orders armed timers by (at, seq).
func (t *Timer) before(u *Timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// precedes orders an armed timer against a pending event by (at, seq).
func (t *Timer) precedes(ev *event) bool {
	if t.at != ev.at {
		return t.at < ev.at
	}
	return t.seq < ev.seq
}

// fire disarms t and runs its callback at its time. The callback may re-arm
// it.
func (e *Engine) fire(t *Timer) {
	e.disarm(t)
	e.now = t.at
	t.fn()
}

func (e *Engine) disarm(t *Timer) {
	t.armed = false
	e.armed--
	if e.first == t {
		e.first = e.earliestTimer()
	}
}

// earliestTimer scans the registered timers for the earliest armed one.
func (e *Engine) earliestTimer() *Timer {
	var first *Timer
	for _, t := range e.timers {
		if t.armed && (first == nil || t.before(first)) {
			first = t
		}
	}
	return first
}
