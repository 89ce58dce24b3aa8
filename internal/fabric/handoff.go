package fabric

import (
	"fmt"
	"sync"

	"llmbw/internal/sim"
)

// Handoff executes store-and-forward transfers between two partitions of a
// sharded simulation: a source-side flow over the sender's links, a fixed
// wire latency crossing the shard boundary, then a destination-side flow
// over the receiver's links. The wire latency must be at or above the
// sharded engine's lookahead — that is the contract that lets the two
// shards' fair-share computations stay decoupled and the parallel engine
// stay byte-identical to serial. (A single fluid flow whose path spans both
// partitions would couple their rate allocations with zero lookahead; such
// traffic cannot be sharded and must run on one shard.)
//
// Transfer records are pooled with bound-once closures, so a steady stream
// of handoffs allocates nothing. The pool is the one piece of state both
// shards touch — acquired on the source, released on the destination — and
// is mutex-protected; records are interchangeable, so pool order never
// affects simulation output.
type Handoff struct {
	se       *sim.ShardedEngine
	from, to int
	latency  sim.Time
	src, dst *Network

	mu   sync.Mutex
	free []*handoffXfer
}

// handoffXfer is one pooled transfer in flight. The three closures are bound
// at allocation and reused for the record's lifetime: hop runs on the source
// shard when the source flow drains, land runs on the destination shard when
// the wire latency elapses, finish recycles the record before invoking the
// caller's completion.
type handoffXfer struct {
	h       *Handoff
	srcFlow Flow
	dstFlow Flow
	extra   sim.Time // added to the wire latency (deeper routes); never negative
	dstCap  *PathCap // per-send receiver cap, evaluated at land; nil = uncapped
	onDone  func()
	hop     func()
	land    func()
	finish  func()
}

// NewHandoff creates a handoff channel from shard from to shard to of se
// with the given wire latency, moving bytes off network src onto network dst.
// Between distinct shards the latency must respect the engine's lookahead.
// A same-shard handoff runs the hop as a plain local delay, so both networks
// must share that shard's engine.
func NewHandoff(se *sim.ShardedEngine, from, to int, latency sim.Time, src, dst *Network) *Handoff {
	if latency < 0 {
		panic(fmt.Sprintf("fabric: negative handoff latency %v", latency))
	}
	if from != to {
		if la := se.Lookahead(); latency < la {
			panic(fmt.Sprintf("fabric: handoff %d->%d latency %v below lookahead %v", from, to, latency, la))
		}
	} else if src.eng != dst.eng {
		panic("fabric: local handoff between networks on different engines")
	}
	return &Handoff{se: se, from: from, to: to, latency: latency, src: src, dst: dst}
}

// Latency returns the wire latency of the hop.
func (h *Handoff) Latency() sim.Time { return h.latency }

// SendPlanned starts a store-and-forward transfer of bytes: srcPath now, the
// wire hop when the source flow drains, dstPath on the far side, then onDone
// (invoked in destination-shard engine context; may be nil). It must be
// called from source-shard execution context, and the path slices must not
// be mutated until the transfer completes. extra adds route-dependent
// latency on top of the wire hop (deeper switching tiers — the total still
// respects the lookahead because extra is never negative). srcCap and dstCap
// rate-cap the two sides (nil = uncapped); they are capacity-epoch-fenced
// PathCaps, srcCap evaluated here (source-shard context) and dstCap at land
// time (destination-shard context), so neither shard reads the other's
// network state.
func (h *Handoff) SendPlanned(name string, bytes float64, extra sim.Time, srcCap, dstCap *PathCap, srcPath, dstPath []*Link, onDone func()) {
	if extra < 0 {
		panic(fmt.Sprintf("fabric: negative handoff extra latency %v", extra))
	}
	x := h.acquire()
	x.onDone = onDone
	x.extra = extra
	x.dstCap = dstCap
	x.srcFlow.Name = name
	x.srcFlow.Path = srcPath
	x.srcFlow.Bytes = bytes
	x.srcFlow.RateLimit = 0
	if srcCap != nil {
		x.srcFlow.RateLimit = srcCap.Value()
	}
	x.dstFlow.Name = name
	x.dstFlow.Path = dstPath
	x.dstFlow.Bytes = bytes
	h.src.StartFlow(&x.srcFlow, x.hop)
}

func (h *Handoff) acquire() *handoffXfer {
	h.mu.Lock()
	if n := len(h.free); n > 0 {
		x := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		h.mu.Unlock()
		return x
	}
	h.mu.Unlock()
	x := &handoffXfer{h: h}
	x.hop = func() { x.h.se.Inject(x.h.from, x.h.to, x.h.latency+x.extra, x.land) }
	x.land = func() {
		x.dstFlow.RateLimit = 0
		if x.dstCap != nil {
			x.dstFlow.RateLimit = x.dstCap.Value()
		}
		x.h.dst.StartFlow(&x.dstFlow, x.finish)
	}
	x.finish = func() {
		cb := x.onDone
		x.onDone = nil
		x.h.recycle(x)
		if cb != nil {
			cb()
		}
	}
	return x
}

// recycle returns x to the pool before the completion callback runs, so a
// callback that immediately sends again (ring traffic) reuses the record.
func (h *Handoff) recycle(x *handoffXfer) {
	x.srcFlow.Path = nil
	x.dstFlow.Path = nil
	x.extra = 0
	x.dstCap = nil
	h.mu.Lock()
	h.free = append(h.free, x)
	h.mu.Unlock()
}

// PoolSize reports the current free-list length — the churn tests' probe
// that steady-state traffic reuses records instead of growing the pool.
func (h *Handoff) PoolSize() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.free)
}

// PathCap is a capacity-epoch-fenced minimum-capacity cache: scale ×
// min(capacity along path), recomputed only when the owning network's
// capacity epoch moves. Every compiled collective plan holds one per
// node-crossing leg (over the testbed route's RoCE links, or a datacenter
// route's half), so replay picks up a mid-run SetCapacity without
// recomputing route minima on every issue. Value must be called from the
// owning network's shard context.
type PathCap struct {
	scale float64
	net   *Network
	path  []*Link
	epoch int64
	val   float64
	valid bool
}

// NewPathCap builds a cap over path on n. A zero scale or empty path yields
// Value() == 0, which flow admission treats as "unlimited".
func NewPathCap(n *Network, scale float64, path []*Link) *PathCap {
	return &PathCap{scale: scale, net: n, path: path}
}

// Value returns the current cap in bytes/s (0 = unlimited).
func (p *PathCap) Value() float64 {
	if len(p.path) == 0 {
		return 0
	}
	if !p.valid || p.epoch != p.net.capEpoch {
		min := p.path[0].capacity
		for _, l := range p.path[1:] {
			if l.capacity < min {
				min = l.capacity
			}
		}
		p.val = min
		p.epoch = p.net.capEpoch
		p.valid = true
	}
	return p.scale * p.val
}
