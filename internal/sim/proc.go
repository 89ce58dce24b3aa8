package sim

// Barrier synchronizes a fixed party of N callback machines: a round ends
// when all N have arrived, and the barrier then resets for the next round.
type Barrier struct {
	N       int
	arrived int
	waiting []func()
}

// Wait records one arrival. The last arrival of a round passes: Wait
// schedules every parked party's next at the current instant, in arrival
// order, and returns true, so the caller continues inline. An earlier
// arrival parks: Wait keeps its next and returns false.
func (b *Barrier) Wait(eng *Engine, next func()) bool {
	if b.N <= 0 {
		panic("sim: barrier with no parties")
	}
	b.arrived++
	if b.arrived < b.N {
		b.waiting = append(b.waiting, next)
		return false
	}
	b.arrived = 0
	ws := b.waiting
	b.waiting = nil
	for _, f := range ws {
		eng.Schedule(0, f)
	}
	return true
}

// Rendezvous coordinates a leader-executed collective action among N
// parties: every party calls Do; the last arrival runs leader with a done
// callback, and when done fires all parties resume. This models operations
// (e.g. NCCL collectives) where all ranks participate but the simulation only
// needs to drive the flows once.
type Rendezvous struct {
	N       int
	arrived int
	waiting []func()
}

// Do records one arrival. An earlier arrival parks: Do keeps its next and
// returns false. The last arrival runs leader(done); when done fires, every
// parked party's next is scheduled at the current instant, in arrival order,
// and the last arrival resumes. Do returns true when done fired before
// leader returned, so the caller continues inline; otherwise done calls the
// last arrival's next itself.
func (r *Rendezvous) Do(eng *Engine, leader func(done func()), next func()) bool {
	if r.N <= 0 {
		panic("sim: rendezvous with no parties")
	}
	r.arrived++
	if r.arrived < r.N {
		r.waiting = append(r.waiting, next)
		return false
	}
	r.arrived = 0
	ws := r.waiting
	r.waiting = nil
	leading, fired := true, false
	leader(func() {
		for _, f := range ws {
			eng.Schedule(0, f)
		}
		if leading {
			fired = true
			return
		}
		next()
	})
	leading = false
	return fired
}
