package fabric

import (
	"fmt"
	"math"

	"llmbw/internal/sim"
)

// Flow is a data transfer of a fixed byte volume over a path of links. Its
// instantaneous rate is assigned by the Network's max-min fair allocation and
// may change whenever flows start, finish, or link capacities change.
type Flow struct {
	Name      string
	Path      []*Link
	Bytes     float64
	RateLimit float64 // optional per-flow cap in bytes/s; 0 = unlimited

	remaining float64
	rate      float64
	onDone    func()
	done      bool
	frozen    bool    // scratch state for the fair-share computation
	idx       int     // position in Network.active; -1 when inactive
	mark      int64   // component-walk visit stamp
	pos       []int32 // per-path-element position in the link's active list
}

// Remaining returns the bytes left to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the currently assigned rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Network manages active flows over the link graph and advances them in
// virtual time.
//
// Rate recomputation is incremental: flows partition into connected
// components over shared links, and a flow start, finish or capacity change
// re-runs progressive filling only for the touched component. Re-arming the
// next completion folds in just the re-rated flows, and the finished-flow
// check is skipped unless a flow can have finished; each walks the whole
// registry only when virtual time has moved or its cached state was lost
// (see nextETA and mayFinish). All scratch
// state (component work-lists, per-link capacities and counts) lives in
// reusable buffers on the Network and the links themselves, so steady-state
// resharing performs no allocation.
type Network struct {
	eng    *sim.Engine
	active []*Flow // dense registry; Flow.idx is the position
	lastAt sim.Time
	epoch  int64 // invalidates stale completion events

	// capEpoch counts SetCapacity calls; callers that cache link-derived
	// rate limits (compiled collective plans) revalidate against it.
	capEpoch int64

	// fillPasses counts progressive-filling rate recomputations — the
	// reshare-count probe batched admission is measured by. nextScans and
	// finishScans count the full registry walks of scheduleNextCompletion
	// and retireFinished, which the caches below exist to avoid.
	fillPasses  int64
	nextScans   int64
	finishScans int64

	// nextETA caches the earliest projected completion, relative to lastAt,
	// and nextFlow the flow projecting it. While virtual time stands still
	// and nextFlow keeps its rate, every other flow's projection is
	// unchanged too, so a reshare folds in only the flows it re-rated.
	// nextValid drops when advance moves time or nextFlow is retired or
	// re-rated, and the next arming rescans the registry.
	nextETA   sim.Time
	nextFlow  *Flow
	nextValid bool

	// mayFinish is set whenever an active flow may be within the 1e-6-byte
	// finish tolerance — advance brought it there, or it was admitted that
	// small — and gates retireFinished's registry walk.
	mayFinish bool

	// cePool recycles completion events (and their bound closures) so
	// steady-state re-arming allocates nothing.
	cePool []*completionEvent

	// Reusable scratch for reshare: the component work-lists double as the
	// BFS queue/visited set, finished collects flows to retire before
	// recomputation mutates the registry.
	markGen   int64
	compFlows []*Flow
	compLinks []*Link
	finished  []*Flow
}

// completionEvent carries the epoch stamp of one arming of the network's
// next-completion timer. The closure is built once per pool entry and reused
// across armings; an event is back in the pool the moment it fires, since
// each scheduled firing references a distinct entry.
type completionEvent struct {
	epoch int64
	fn    func()
}

// NewNetwork creates a network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.active) }

// Reshares returns the number of progressive-filling rate recomputations the
// network has performed — one per touched component for batched admission,
// one per StartFlow/SetCapacity/completion otherwise. It is a diagnostic
// probe for tests and instrumentation.
func (n *Network) Reshares() int64 { return n.fillPasses }

// CapacityEpoch returns a counter that increments on every effective
// SetCapacity call. Callers caching values derived from link capacities
// (e.g. compiled collective plans caching cross-node stream caps) compare
// epochs to decide whether to refresh.
func (n *Network) CapacityEpoch() int64 { return n.capEpoch }

// StartFlow begins transferring f and invokes onDone (from engine context)
// when the last byte arrives. Zero-byte flows complete after one scheduler
// tick. Flows must have a non-empty path unless they are pure-latency
// zero-byte markers.
func (n *Network) StartFlow(f *Flow, onDone func()) {
	if f.Bytes < 0 {
		panic(fmt.Sprintf("fabric: flow %s with negative bytes", f.Name))
	}
	f.remaining = f.Bytes
	f.onDone = onDone
	f.done = false
	if f.Bytes == 0 || len(f.Path) == 0 {
		n.eng.Schedule(0, func() { //lint:allow steady-alloc — zero-byte marker flows are rare control ticks, not per-iteration traffic
			f.done = true
			if onDone != nil {
				onDone()
			}
		})
		return
	}
	n.advance()
	n.register(f)
	n.reshare(f, nil)
}

// StartFlows admits a batch of flows in one step, invoking onDone once per
// flow as each completes (the same callback serves every flow in the batch;
// it may be nil). Admitting k flows through StartFlow costs k advances and k
// component reshares, each invalidated by the next; StartFlows performs one
// advance and one progressive-filling pass per touched component, which is
// what makes steady-state ring collectives cheap — a 2n-leg dual-ring
// admission drops from 2n reshares to one.
//
// The simulation outcome is byte-identical to calling StartFlow on each flow
// in order within one event: no virtual time passes between admissions, and
// each component's rates are computed with exactly the flow ordering the last
// serial admission touching it would have used.
func (n *Network) StartFlows(flows []*Flow, onDone func()) {
	if len(flows) == 0 {
		return
	}
	admitted := false
	firstReal := -1
	for i, f := range flows {
		if f.Bytes < 0 {
			panic(fmt.Sprintf("fabric: flow %s with negative bytes", f.Name))
		}
		f.remaining = f.Bytes
		f.onDone = onDone
		f.done = false
		if f.Bytes == 0 || len(f.Path) == 0 {
			f := f
			n.eng.Schedule(0, func() { //lint:allow steady-alloc — zero-byte marker flows are rare control ticks, not per-iteration traffic
				f.done = true
				if onDone != nil {
					onDone()
				}
			})
			f.idx = -1
			continue
		}
		if !admitted {
			n.advance()
		}
		n.register(f)
		if !admitted {
			admitted = true
			firstReal = i
			// Retire already-finished flows here rather than in reshareBatch:
			// the serial path retires them during the first real flow's
			// reshare, before any later zero-byte flow in the batch schedules
			// its completion tick, and the relative order of those 0-delay
			// events is observable.
			n.retireFinished()
		}
	}
	if !admitted {
		return
	}
	n.reshareBatch(flows, firstReal)
}

// register adds f to the dense registry and to every link it crosses.
func (n *Network) register(f *Flow) {
	f.idx = len(n.active)
	f.mark = 0
	n.active = append(n.active, f) //lint:allow steady-alloc — retire truncates, not nils: the registry's backing reaches steady capacity
	f.pos = f.pos[:0]
	for _, l := range f.Path {
		f.pos = append(f.pos, int32(len(l.active))) //lint:allow steady-alloc — reset to [:0] above: backing survives across iterations
		l.active = append(l.active, f)              //lint:allow steady-alloc — retire truncates, not nils: the registry's backing reaches steady capacity
	}
	if f.remaining <= 1e-6 {
		n.mayFinish = true
	}
}

// Transfer is a convenience wrapper for processes: it starts the flow and
// blocks p until completion.
func (n *Network) Transfer(p *sim.Proc, f *Flow) {
	p.Await(func(resume func()) { n.StartFlow(f, resume) })
}

// SetCapacity changes a link's capacity mid-simulation (e.g. an NVMe write
// cache filling up) and reallocates flow rates.
func (n *Network) SetCapacity(l *Link, capacity float64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: non-positive capacity for %s", l.Name))
	}
	// Bit-identical capacity means nothing changed; this idempotence fast
	// path wants exact equality, not an epsilon.
	if l.capacity == capacity { //lint:allow float-eq — deliberate idempotence test
		return
	}
	n.advance()
	l.capacity = capacity
	n.capEpoch++
	n.reshare(nil, l)
}

// advance credits bytes moved since the last rate change to flows and link
// telemetry, up to the current virtual time.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now - n.lastAt
	if dt < 0 {
		panic("fabric: time went backwards")
	}
	if dt == 0 {
		n.lastAt = now
		return
	}
	n.nextValid = false
	sec := dt.ToSeconds()
	for _, f := range n.active {
		moved := f.rate * sec
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		if f.remaining <= 1e-6 {
			n.mayFinish = true
		}
		if moved > 0 {
			for _, l := range f.Path {
				l.counter.Add(n.lastAt, now, moved*l.CountWeight)
			}
		}
	}
	n.lastAt = now
}

// reshare retires flows that have (within tolerance) finished, recomputes
// max-min fair rates for the connected component touched by the change —
// seeded by a starting flow, a capacity-changed link, and the links of every
// retired flow — and re-arms the next completion event.
func (n *Network) reshare(seedFlow *Flow, seedLink *Link) {
	n.retireFinished()

	// Gather the touched component. The compLinks slice doubles as the BFS
	// queue: links are appended once when first marked and scanned in order.
	n.markGen++
	gen := n.markGen
	n.compFlows = n.compFlows[:0]
	n.compLinks = n.compLinks[:0]
	if seedLink != nil {
		n.seedLink(seedLink, gen)
	}
	for _, f := range n.finished {
		n.seedLinks(f.Path, gen)
	}
	if seedFlow != nil && seedFlow.idx >= 0 {
		n.visitFlow(seedFlow, gen)
	}
	n.bfs(0, gen)

	n.computeRates(0, 0)
	n.scheduleNextCompletion()
}

// reshareBatch recomputes rates after a StartFlows admission: one
// progressive-filling pass per connected component the batch touches, plus
// one for any components that only lost retired flows. Admitting the same
// flows serially leaves each component with the rates computed by the last
// StartFlow call touching it, so the batch walks flows in reverse admission
// order — the first unmarked flow seen is that component's last-admitted
// flow, and seeding the gather with it reproduces the surviving serial
// pass's flow ordering (and therefore its floating-point operation order)
// exactly. firstReal is the index in flows of the first admitted flow; the
// serial path folds capacity freed by retired flows into that flow's
// reshare, finished links seeded first, so the batch does too.
func (n *Network) reshareBatch(flows []*Flow, firstReal int) {
	n.markGen++
	gen := n.markGen
	n.compFlows = n.compFlows[:0]
	n.compLinks = n.compLinks[:0]

	for i := len(flows) - 1; i >= 0; i-- {
		f := flows[i]
		if f.idx < 0 || f.mark == gen {
			continue // zero-byte, or component already recomputed
		}
		flowStart, linkStart := len(n.compFlows), len(n.compLinks)
		if i == firstReal {
			for _, ff := range n.finished {
				n.seedLinks(ff.Path, gen)
			}
		}
		n.visitFlow(f, gen)
		n.bfs(linkStart, gen)
		n.computeRates(flowStart, linkStart)
	}

	// Components touched only by retired flows — no batch flow reaches them —
	// still need the freed capacity redistributed. The serial path does this
	// inside the first real flow's reshare; those components are disjoint
	// from every batch component (or they would have been marked above), so
	// computing them last yields identical rates.
	flowStart, linkStart := len(n.compFlows), len(n.compLinks)
	for _, ff := range n.finished {
		n.seedLinks(ff.Path, gen)
	}
	if len(n.compLinks) > linkStart {
		n.bfs(linkStart, gen)
		n.computeRates(flowStart, linkStart)
	}

	n.scheduleNextCompletion()
}

// retireFinished collects every active flow whose remaining bytes are
// (within tolerance) zero into n.finished, then retires them. Collect first,
// then retire: retiring in-place while scanning would permute the dense
// registry under the scan. Without mayFinish no flow can qualify, so the
// walk is skipped.
func (n *Network) retireFinished() {
	n.finished = n.finished[:0]
	if !n.mayFinish {
		return
	}
	n.mayFinish = false
	n.finishScans++
	for _, f := range n.active {
		if f.remaining <= 1e-6 {
			n.finished = append(n.finished, f) //lint:allow steady-alloc — scratch list reset to [:0] each pass: backing is reused
		}
	}
	for _, f := range n.finished {
		n.retire(f)
	}
}

// seedLink adds l to the current component work-list if not yet marked,
// resetting its progressive-filling scratch.
func (n *Network) seedLink(l *Link, gen int64) {
	if l.mark != gen {
		l.mark = gen
		l.scap = l.capacity
		l.sunfrozen = 0
		n.compLinks = append(n.compLinks, l) //lint:allow steady-alloc — component work-list reset to [:0] each reshare: backing is reused
	}
}

// seedLinks seeds every link on a path.
func (n *Network) seedLinks(path []*Link, gen int64) {
	for _, l := range path {
		n.seedLink(l, gen)
	}
}

// visitFlow adds f to the current component work-list if not yet marked,
// seeding its links and counting it against their unfrozen totals.
func (n *Network) visitFlow(f *Flow, gen int64) {
	if f.mark == gen {
		return
	}
	f.mark = gen
	f.frozen = false
	f.rate = 0
	n.compFlows = append(n.compFlows, f) //lint:allow steady-alloc — component work-list reset to [:0] each reshare: backing is reused
	n.seedLinks(f.Path, gen)
	for _, l := range f.Path {
		l.sunfrozen++
	}
}

// bfs expands the component work-lists to their transitive closure, scanning
// compLinks from index scan onward (links appended during the scan extend
// the frontier).
func (n *Network) bfs(scan int, gen int64) {
	for ; scan < len(n.compLinks); scan++ {
		for _, f := range n.compLinks[scan].active {
			n.visitFlow(f, gen)
		}
	}
}

// retire removes f from the dense registry and every link it crosses, and
// schedules its completion callback.
func (n *Network) retire(f *Flow) {
	last := len(n.active) - 1
	if f.idx != last {
		moved := n.active[last]
		n.active[f.idx] = moved
		moved.idx = f.idx
	}
	n.active[last] = nil
	n.active = n.active[:last]
	f.idx = -1
	if f == n.nextFlow {
		n.nextValid = false
	}
	for i, l := range f.Path {
		l.removeFlowAt(int(f.pos[i]))
	}
	f.remaining = 0
	f.rate = 0
	f.done = true
	if f.onDone != nil {
		cb := f.onDone
		f.onDone = nil
		n.eng.Schedule(0, cb)
	}
}

// computeRates implements progressive filling over one gathered component —
// the sub-slices of the work-lists from flowStart/linkStart on: repeatedly
// find the most constrained resource, freeze its flows at the fair share, and
// continue with reduced capacities. Per-flow rate limits are treated as
// single-flow links. Flows outside the component keep their rates:
// components share no links, so their allocations are unaffected.
func (n *Network) computeRates(flowStart, linkStart int) {
	n.fillPasses++
	compFlows := n.compFlows[flowStart:]
	compLinks := n.compLinks[linkStart:]
	unfrozen := len(compFlows)
	for unfrozen > 0 {
		// Find the bottleneck: smallest fair share over links and flow caps.
		share := math.MaxFloat64
		for _, l := range compLinks {
			if l.sunfrozen == 0 {
				continue
			}
			if s := l.scap / float64(l.sunfrozen); s < share {
				share = s
			}
		}
		for _, f := range compFlows {
			if !f.frozen && f.RateLimit > 0 && f.RateLimit < share {
				share = f.RateLimit
			}
		}
		if share == math.MaxFloat64 || share < 0 {
			panic("fabric: fair-share computation failed")
		}
		// Freeze every flow constrained at this share.
		progressed := false
		for _, f := range compFlows {
			if f.frozen {
				continue
			}
			capped := f.RateLimit > 0 && f.RateLimit <= share*(1+1e-12)
			bottled := false
			if !capped {
				for _, l := range f.Path {
					if l.sunfrozen > 0 && l.scap/float64(l.sunfrozen) <= share*(1+1e-12) {
						bottled = true
						break
					}
				}
			}
			if !capped && !bottled {
				continue
			}
			f.frozen = true
			f.rate = share
			if capped && f.RateLimit < share {
				f.rate = f.RateLimit
			}
			unfrozen--
			progressed = true
			for _, l := range f.Path {
				l.scap -= f.rate
				if l.scap < 0 {
					l.scap = 0
				}
				l.sunfrozen--
			}
		}
		if !progressed {
			panic("fabric: progressive filling made no progress")
		}
	}
	n.foldNext(compFlows)
}

// foldNext folds freshly computed rates into the cached next completion.
// Re-rating the holder leaves no known minimum, so the cache is dropped and
// the next arming rescans. A holder already displaced earlier in the same
// reshare needs no such care: its old projection, which bounds every
// untouched flow from below, exceeds the cached minimum.
func (n *Network) foldNext(flows []*Flow) {
	if !n.nextValid {
		return
	}
	for _, f := range flows {
		if f == n.nextFlow {
			n.nextValid = false
			return
		}
		if f.rate > 0 {
			if eta := f.eta(); eta < n.nextETA {
				n.nextETA, n.nextFlow = eta, f
			}
		}
	}
}

// eta projects f's completion relative to the last advance, rounded up to
// whole nanoseconds and at least one tick. The full scan and the fold both
// use it, so the armed time is bit-identical whichever path set it.
func (f *Flow) eta() sim.Time {
	eta := sim.Time(math.Ceil(f.remaining / f.rate * float64(sim.Second)))
	if eta < 1 {
		eta = 1
	}
	return eta
}

// scheduleNextCompletion arms a single event at the earliest projected flow
// completion, rescanning the registry only when the cached minimum is
// invalid. Any state change bumps the epoch, so stale events no-op; a fresh
// event is armed on every reshare all the same, since its sequence number
// orders it against other events at the same instant.
func (n *Network) scheduleNextCompletion() {
	n.epoch++
	if len(n.active) == 0 {
		return
	}
	if !n.nextValid {
		n.nextScans++
		soonest, holder := sim.Time(math.MaxInt64), (*Flow)(nil)
		for _, f := range n.active {
			if f.rate <= 0 {
				continue
			}
			if eta := f.eta(); eta < soonest {
				soonest, holder = eta, f
			}
		}
		if holder == nil {
			panic("fabric: active flows but no positive rates (zero-capacity deadlock)")
		}
		n.nextETA, n.nextFlow, n.nextValid = soonest, holder, true
	}
	ce := n.grabCompletionEvent()
	ce.epoch = n.epoch
	n.eng.Schedule(n.nextETA, ce.fn)
}

// grabCompletionEvent takes a pooled completion event or builds a new one.
func (n *Network) grabCompletionEvent() *completionEvent {
	if k := len(n.cePool); k > 0 {
		ce := n.cePool[k-1]
		n.cePool = n.cePool[:k-1]
		return ce
	}
	ce := &completionEvent{} //lint:allow steady-alloc — pool miss: the event rejoins cePool when it fires
	ce.fn = func() {         //lint:allow steady-alloc — bound once per pooled event, at construction
		// This firing is the event's last use, so it can rejoin the pool
		// immediately — the reshare below may re-arm with this very entry.
		n.cePool = append(n.cePool, ce)
		if ce.epoch != n.epoch {
			return
		}
		n.advance()
		n.reshare(nil, nil)
	}
	return ce
}

// Quiesce advances accounting to the current time; call before reading
// telemetry at the end of a run.
func (n *Network) Quiesce() { n.advance() }
