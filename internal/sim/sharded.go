package sim

import (
	"fmt"
	"sync/atomic"
)

// Sharded gates the parallel execution path of ShardedEngine. When true, Run
// advances shards concurrently in conservative lookahead windows on worker
// goroutines; when false, the same sharded program is replayed on one
// goroutine by a serial merge loop in global (time, shard, seq) order. The
// two paths are byte-identical in every observable (traces, telemetry,
// summaries). The serial merge is the parallel engine's live oracle: it is
// the repository's only package-level execution toggle, kept so the sharded
// A/B tests can compare the two on the one model-level partition, the pod
// seams of a generated fabric (topology.NewDCSharded). It must not be toggled
// while a simulation is running.
var Sharded = true

const (
	// maxTime is one past the largest deadline Run uses; it doubles as the
	// "no event / unreachable" sentinel in horizon arithmetic.
	maxTime Time = 1 << 62

	// Cross-shard injections get sequence numbers in a band above every
	// locally assigned one (Engine.seq counts up from 1 and can never reach
	// 1<<62), encoded as injBand | from<<injShardShift | perSourceCounter.
	// The seq is therefore a pure function of the injection's content —
	// source shard and that source's injection count, both of which evolve
	// identically in serial and parallel execution — so same-time deliveries
	// order deterministically: after all local events, then shard-major.
	injBand       = int64(1) << 62
	injShardShift = 44
	maxInjSeq     = int64(1) << injShardShift

	// MaxShards bounds the shard count so the source index fits between the
	// injection band bit and the per-source counter.
	MaxShards = 1 << 18
)

// injection is a cross-shard event delivery buffered in a source-owned
// outbox during a parallel window and drained into the target shard's heap
// at the barrier.
type injection struct {
	to  int
	at  Time
	seq int64
	fn  func()
}

// ShardedEngine partitions one simulation across per-partition sub-engines
// that advance under conservative lookahead. Each shard owns its links,
// flows and processes outright; the only cross-shard influence is an
// explicit Inject over a Connect-declared edge, whose lookahead lower-bounds
// the delivery delay. That bound is what makes windows safe: shard i may
// execute every event strictly before
//
//	h(i) = min( min_{j≠i} next(j) + dist(j,i),  next(i) + cyc(i) )
//
// where next(j) is shard j's earliest pending event or armed timer, dist is
// the all-pairs shortest path over declared lookaheads, and cyc(i) is the
// shortest cycle through i — the earliest time shard i's own future sends
// could loop back via other shards. No injection can arrive below h(i), so
// the window's event order equals the serial merge order and the two modes
// produce byte-identical output.
type ShardedEngine struct {
	shards []*Engine

	la        [][]Time // declared lookahead edges; maxTime = not connected
	dist      [][]Time // all-pairs shortest path over la
	cyc       []Time   // shortest cycle through each shard
	distDirty bool

	injSeq []int64 // per-source injection counters (source-owned)

	// inWindow is set by the coordinator strictly outside any window, so
	// shard code reads it race-free: true routes Inject into the source's
	// outbox, false (serial mode, setup, barrier) delivers directly.
	inWindow bool
	outbox   [][]injection // per-source; slices reused round to round

	// Parallel machinery: one persistent worker per shard, dispatched a
	// window bound over its own channel and reporting back on done. The
	// channels are the only cross-goroutine hand-off; everything a worker
	// touches (its engine, injSeq[i], outbox[i]) is owned by shard i.
	work      []chan Time
	done      chan int
	workersUp bool

	// stopReq is the engine-wide Stop request. It is atomic because model
	// code may call Stop from any shard's window while other workers run;
	// the coordinator honors it at the next barrier (windows are the finest
	// granularity at which the parallel engine can observe anything).
	stopReq atomic.Bool

	next []Time // scratch: earliest pending event or armed timer per shard
}

// NewSharded returns a sharded engine with n sub-engines and no connectivity:
// shards are fully independent until Connect declares lookahead edges.
func NewSharded(n int) *ShardedEngine {
	if n < 1 || n > MaxShards {
		panic(fmt.Sprintf("sim: shard count %d outside 1-%d", n, MaxShards))
	}
	se := &ShardedEngine{
		shards: make([]*Engine, n),
		la:     make([][]Time, n),
		dist:   make([][]Time, n),
		cyc:    make([]Time, n),
		injSeq: make([]int64, n),
		outbox: make([][]injection, n),
		work:   make([]chan Time, n),
		done:   make(chan int, n),
		next:   make([]Time, n),
	}
	for i := range se.shards {
		se.shards[i] = New()
		se.la[i] = make([]Time, n)
		se.dist[i] = make([]Time, n)
		for j := range se.la[i] {
			se.la[i][j] = maxTime
		}
	}
	se.distDirty = true
	return se
}

// Shard returns sub-engine i. Model code builds its partition's state on the
// shard exactly as it would on a standalone Engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Connect declares that shard from may inject events into shard to with at
// least lookahead delay. Tighter declarations win. The lookahead must be
// positive: a zero-delay edge would collapse the window to nothing (and a
// zero-latency coupling — e.g. two shards sharing a fluid fair-share
// component — cannot be sharded conservatively at all; keep it on one
// shard).
func (se *ShardedEngine) Connect(from, to int, lookahead Time) {
	se.checkShard(from)
	se.checkShard(to)
	if from == to {
		panic("sim: self lookahead edge is implicit")
	}
	if lookahead < Nanosecond {
		panic(fmt.Sprintf("sim: lookahead %v must be positive", lookahead))
	}
	if se.inWindow {
		panic("sim: Connect during a parallel window")
	}
	if lookahead < se.la[from][to] {
		se.la[from][to] = lookahead
		se.distDirty = true
	}
}

// Lookahead returns the declared edge lookahead, or false when the edge was
// never Connected.
func (se *ShardedEngine) Lookahead(from, to int) (Time, bool) {
	se.checkShard(from)
	se.checkShard(to)
	if se.la[from][to] >= maxTime {
		return 0, false
	}
	return se.la[from][to], true
}

// Inject schedules fn on shard to, delay nanoseconds after shard from's
// clock. It must be called from shard from's execution context (an event or
// process running on that shard). The delay must respect the Connected
// edge's lookahead — that promise is the entire basis of the parallel mode's
// correctness, so violations panic rather than corrupt determinism. A
// same-shard injection degenerates to a plain Schedule.
func (se *ShardedEngine) Inject(from, to int, delay Time, fn func()) {
	se.checkShard(from)
	se.checkShard(to)
	if fn == nil {
		panic("sim: nil injection")
	}
	if from == to {
		se.shards[from].Schedule(delay, fn)
		return
	}
	la := se.la[from][to]
	if la >= maxTime {
		panic(fmt.Sprintf("sim: inject %d->%d without a Connect edge", from, to))
	}
	if delay < la {
		panic(fmt.Sprintf("sim: inject %d->%d delay %v below lookahead %v", from, to, delay, la))
	}
	n := se.injSeq[from]
	if n >= maxInjSeq {
		panic(fmt.Sprintf("sim: shard %d exceeded %d injections", from, maxInjSeq))
	}
	se.injSeq[from] = n + 1
	at := se.shards[from].now + delay
	seq := injBand | int64(from)<<injShardShift | n
	if se.inWindow {
		// Source-owned buffer: the target shard may be mid-window on
		// another goroutine, so the delivery waits for the barrier.
		se.outbox[from] = append(se.outbox[from], injection{to: to, at: at, seq: seq, fn: fn})
		return
	}
	se.shards[to].inject(at, seq, fn)
}

// Now returns the maximum shard clock — the virtual time the merged
// simulation has reached.
func (se *ShardedEngine) Now() Time {
	var t Time
	for _, sh := range se.shards {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// Pending sums pending events and armed timers across shards (outboxes are
// always empty between runs).
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.Pending()
	}
	return n
}

// LiveProcs sums live processes across shards.
func (se *ShardedEngine) LiveProcs() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.LiveProcs()
	}
	return n
}

// Stop makes Run return early: after the current event in serial mode, at
// the current window barrier in parallel mode. Pending events are kept and a
// subsequent Run resumes them, like Engine.Stop. (A shard's own Engine.Stop
// also ends the run, additionally cutting that shard's window short.)
func (se *ShardedEngine) Stop() { se.stopReq.Store(true) }

// Run executes events until every shard drains or Stop is called, returning
// the final virtual time.
func (se *ShardedEngine) Run() Time { return se.RunUntil(1<<62 - 1) }

// RunUntil executes events with timestamps <= deadline, with the same
// clock-jump contract as Engine.RunUntil: every shard clock lands on the
// deadline when work remains beyond it, and stays at the last executed event
// when the simulation drained first.
func (se *ShardedEngine) RunUntil(deadline Time) Time {
	if deadline >= maxTime {
		panic(fmt.Sprintf("sim: deadline %d overflows the horizon arithmetic", int64(deadline)))
	}
	for _, sh := range se.shards {
		sh.stopped = false
	}
	se.stopReq.Store(false)
	if !Sharded {
		return se.runSerial(deadline)
	}
	return se.runParallel(deadline)
}

// runSerial replays the sharded program on the calling goroutine in global
// (time, shard, seq) order — the reference order parallel windows must
// reproduce. Within a shard the engine already yields (time, seq) order;
// across shards the loop breaks timestamp ties by shard index.
func (se *ShardedEngine) runSerial(deadline Time) Time {
	for {
		best := -1
		var bt Time
		for i, sh := range se.shards {
			if t, ok := sh.peek(); ok && (best < 0 || t < bt) {
				best, bt = i, t
			}
		}
		if best < 0 {
			return se.Now() // drained
		}
		if bt > deadline {
			return se.jumpTo(deadline)
		}
		sh := se.shards[best]
		sh.runNext()
		if sh.stopped || se.stopReq.Load() {
			return se.Now()
		}
	}
}

// runParallel advances shards in conservative bounded-lag windows: compute
// each shard's horizon from every shard's earliest pending event and the
// lookahead distances, dispatch shards with work below their horizon to
// their workers, barrier, drain outboxes, repeat. Progress is guaranteed —
// the globally earliest event is always below its shard's horizon because
// every lookahead is at least 1ns.
func (se *ShardedEngine) runParallel(deadline Time) Time {
	se.ensureWorkers()
	se.refreshDist()
	limit := deadline + 1 // windows are strict-<, so at <= deadline executes
	for {
		work := false
		for i, sh := range se.shards {
			if t, ok := sh.peek(); ok {
				se.next[i] = t
				if t <= deadline {
					work = true
				}
			} else {
				se.next[i] = maxTime
			}
		}
		if !work {
			if se.anyPending() {
				return se.jumpTo(deadline)
			}
			return se.Now()
		}
		dispatched := 0
		se.inWindow = true
		for i := range se.shards {
			h := se.horizon(i)
			if h > limit {
				h = limit
			}
			if se.next[i] < h {
				se.work[i] <- h
				dispatched++
			}
		}
		for k := 0; k < dispatched; k++ {
			<-se.done
		}
		se.inWindow = false
		se.drainOutboxes()
		if se.stopReq.Load() {
			return se.Now()
		}
		for _, sh := range se.shards {
			if sh.stopped {
				return se.Now()
			}
		}
	}
}

// horizon returns the earliest virtual time at which a not-yet-executed
// event anywhere could influence shard i. Forwarding chains are covered by
// the shortest-path distances: an event k will relay via j arrives at i no
// earlier than next(k) + dist(k,j) + dist(j,i) >= next(k) + dist(k,i).
func (se *ShardedEngine) horizon(i int) Time {
	h := maxTime
	for j := range se.shards {
		if j == i {
			continue
		}
		if d := se.dist[j][i]; d < maxTime && se.next[j] < maxTime {
			if c := se.next[j] + d; c < h {
				h = c
			}
		}
	}
	// Shard i's own future sends can loop back through other shards: even
	// with every neighbor idle, events of i beyond next(i) + cyc(i) are not
	// safe. With no cycle through i (e.g. no edges at all), cyc is maxTime
	// and an idle neighborhood lets i run to completion in one window.
	if cy := se.cyc[i]; cy < maxTime && se.next[i] < maxTime {
		if c := se.next[i] + cy; c < h {
			h = c
		}
	}
	return h
}

// refreshDist recomputes all-pairs shortest paths over the lookahead edges
// (Floyd-Warshall). The diagonal is seeded unreachable, not zero, so the
// recurrence computes the shortest closed walk through each shard — with
// positive weights that is exactly the shortest cycle, which the horizon's
// self-feedback term needs.
func (se *ShardedEngine) refreshDist() {
	if !se.distDirty {
		return
	}
	se.distDirty = false
	n := len(se.shards)
	for i := 0; i < n; i++ {
		copy(se.dist[i], se.la[i])
		se.dist[i][i] = maxTime
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := se.dist[i][k]
			if dik >= maxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if dkj := se.dist[k][j]; dkj < maxTime && dik+dkj < se.dist[i][j] {
					se.dist[i][j] = dik + dkj
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		se.cyc[i] = se.dist[i][i]
	}
}

// drainOutboxes delivers the windows' buffered injections in source-shard
// order. The horizon guarantee makes every delivery land at or after its
// target's clock; the content-derived seq makes the resulting heap order
// independent of which shard's outbox drained first.
func (se *ShardedEngine) drainOutboxes() {
	for from := range se.outbox {
		ob := se.outbox[from]
		for idx := range ob {
			inj := &ob[idx]
			se.shards[inj.to].inject(inj.at, inj.seq, inj.fn)
			*inj = injection{} // release the fn reference
		}
		se.outbox[from] = ob[:0]
	}
}

// ensureWorkers launches one persistent goroutine per shard. Close undoes
// this; a later parallel run relaunches lazily.
func (se *ShardedEngine) ensureWorkers() {
	if se.workersUp {
		return
	}
	se.workersUp = true
	for i := range se.shards {
		se.work[i] = make(chan Time, 1)
		go se.worker(i)
	}
}

// worker executes shard i's windows. The work channel hands it a bound, the
// done channel hands completion back to the coordinator; shard i's engine,
// counters and outbox are owned by this goroutine for the window's duration.
func (se *ShardedEngine) worker(i int) {
	sh := se.shards[i]
	for bound := range se.work[i] {
		sh.runWindow(bound)
		se.done <- i
	}
}

// Close stops the worker goroutines. It is idempotent, safe on a never-run
// engine, and does not invalidate the engine: serial runs still work and a
// parallel run relaunches workers.
func (se *ShardedEngine) Close() {
	if !se.workersUp {
		return
	}
	se.workersUp = false
	for i := range se.work {
		close(se.work[i])
	}
}

// jumpTo lands every shard clock on the deadline (work remains beyond it)
// and returns it — the multi-shard version of Engine.RunUntil's clock jump.
func (se *ShardedEngine) jumpTo(deadline Time) Time {
	for _, sh := range se.shards {
		if sh.now < deadline {
			sh.now = deadline
		}
	}
	return deadline
}

func (se *ShardedEngine) anyPending() bool {
	for _, sh := range se.shards {
		if sh.Pending() > 0 {
			return true
		}
	}
	return false
}

func (se *ShardedEngine) checkShard(i int) {
	if i < 0 || i >= len(se.shards) {
		panic(fmt.Sprintf("sim: shard %d outside 0-%d", i, len(se.shards)-1))
	}
}
