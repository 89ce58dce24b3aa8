package collective

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// planKey identifies one collective shape. Training iterations re-issue the
// same handful of shapes thousands of times (the paper's Table IV/V
// workloads), which is what makes compiling them worthwhile.
type planKey struct {
	op      Op
	payload float64
	limit   float64 // per-hop rate cap; 0 = unlimited
	rings   int8
	tree    bool
}

// crossLeg records a node-boundary leg and its route so the plan can
// recompute the leg's stream cap when link capacities change.
type crossLeg struct {
	flow  *fabric.Flow
	route topology.Route
}

// Plan is a compiled collective: the flow records, hop paths, stream caps and
// completion closures of one issue, built once and replayed by resetting byte
// counters. A plan is checked out of its group's per-key free list while in
// flight and returned on completion, so overlapping same-key issues (ZeRO-3's
// parameter prefetch) each hold a private plan.
type Plan struct {
	g     *Group
	key   planKey
	flows []*fabric.Flow
	cross []crossLeg

	frac     float64  // effective cross-node stream fraction
	latency  sim.Time // pipeline latency added after the last leg drains
	capEpoch int64    // fabric capacity epoch the cross caps were computed at

	total     int
	remaining int
	onDone    func()
	legDone   func() // bound once; shared by every leg of every replay
	finish    func() // bound once; releases the plan, then calls onDone
}

// acquirePlan returns a ready-to-start plan for the key: a pooled one when
// the free list has one (refreshing its stream caps if link capacities
// changed since it was compiled), a freshly compiled one otherwise.
func (g *Group) acquirePlan(key planKey) *Plan {
	free := g.plans[key]
	if k := len(free); k > 0 {
		p := free[k-1]
		free[k-1] = nil
		g.plans[key] = free[:k-1]
		if ce := g.cluster.Net.CapacityEpoch(); ce != p.capEpoch {
			// A link capacity changed since compile (e.g. whatif's degraded
			// NIC); recompute the cross-leg caps exactly as a fresh compile
			// would. In-flight plans keep their caps: flows already started
			// keep their limits.
			p.applyCrossCaps()
			p.capEpoch = ce
		}
		g.replays++
		return p
	}
	p := g.compilePlan(key)
	g.compiled++
	return p
}

// releasePlan returns a finished plan to the free list.
func (g *Group) releasePlan(p *Plan) {
	if g.plans == nil {
		g.plans = make(map[planKey][]*Plan)
	}
	g.plans[p.key] = append(g.plans[p.key], p)
}

// Precompile ensures a plan for the shape sits on the free list, so the
// first issue replays instead of compiling mid-simulation. Schedule
// executors call it at construction for every collective their program can
// issue. No-op when the shape degenerates to a zero-cost operation or
// already has a parked plan.
// Precompilation generates no engine events and is therefore invisible to
// the simulation outcome.
func (g *Group) Precompile(op Op, payload, hopRateLimit float64, rings int) {
	if len(g.ranks) == 1 || payload <= 0 {
		return
	}
	key := planKey{op: op, payload: payload, limit: hopRateLimit, rings: int8(rings)}
	if len(g.plans[key]) > 0 {
		return
	}
	p := g.compilePlan(key)
	g.compiled++
	g.releasePlan(p)
}

// compilePlan builds the flows and closures for one collective shape.
//
//lint:cold
func (g *Group) compilePlan(key planKey) *Plan {
	p := &Plan{g: g, key: key, capEpoch: g.cluster.Net.CapacityEpoch()}
	if key.tree {
		p.compileTree()
	} else {
		p.compileRings()
	}
	p.total = len(p.flows)
	eng := g.cluster.Eng
	p.legDone = func() {
		p.remaining--
		if p.remaining == 0 {
			eng.Schedule(p.latency, p.finish)
		}
	}
	p.finish = func() {
		// Release before the callback: the flows have drained, so a restart
		// from within onDone (the next pipeline stage issuing the same
		// shape) replays this very plan instead of compiling a second one.
		cb := p.onDone
		p.onDone = nil
		p.g.releasePlan(p)
		cb()
	}
	return p
}

// start replays the plan: every flow's byte counter resets inside the batch
// admission, and the shared leg-completion closure counts the legs back in.
func (p *Plan) start(onDone func()) {
	p.onDone = onDone
	p.remaining = p.total
	p.g.cluster.Net.StartFlows(p.flows, p.legDone)
}

// addLeg appends one leg flow; cross legs are indexed for stream-cap
// (re)computation.
func (p *Plan) addLeg(route topology.Route, name string, bytes float64, cross bool) {
	f := route.Flow(name, bytes)
	f.RateLimit = p.key.limit
	p.flows = append(p.flows, f)
	if cross {
		p.cross = append(p.cross, crossLeg{flow: f, route: route})
	}
}

// compileRings builds forward (and, for two rings, reverse) legs per hop in
// hop order, each carrying the per-hop wire volume split across the rings and
// named by leg index.
func (p *Plan) compileRings() {
	g := p.g
	n := len(g.ranks)
	wire := WireBytesPerHop(p.key.op, n, p.key.payload)
	p.latency = sim.Time(Steps(p.key.op, n)) * topology.LatNCCLStep
	p.frac = streamFraction(g.cluster, int(p.key.rings))
	leg := func(route topology.Route, bytes float64, cross bool) {
		p.addLeg(route, fmt.Sprintf("%s/hop%d", p.key.op, len(p.flows)), bytes, cross)
	}
	for i := range g.hops {
		if p.key.rings == 2 {
			leg(g.hops[i], wire/2, g.crosses[i])
			leg(g.rhops[i], wire/2, g.crosses[i])
		} else {
			leg(g.hops[i], wire, g.crosses[i])
		}
	}
	p.applyCrossCaps()
}

// applyCrossCaps sets every node-crossing leg's rate limit to the attainable
// stream rate over its route, folded with the plan's per-hop cap.
func (p *Plan) applyCrossCaps() {
	for _, cl := range p.cross {
		crossCap := p.frac * minRoCECapacity(cl.route)
		limit := p.key.limit
		if limit == 0 || limit > crossCap {
			limit = crossCap
		}
		cl.flow.RateLimit = limit
	}
}

// streamFraction returns the effective cross-node stream fraction for a ring
// count, honouring the platform override.
func streamFraction(c *topology.Cluster, rings int) float64 {
	frac := FusedStreamFraction
	if rings == 1 {
		frac = PartitionedStreamFraction
	}
	if eff := c.Cfg.StreamEff; eff > 0 {
		// Platform override (e.g. purpose-built InfiniBand rails); the
		// partitioned penalty keeps its relative shape.
		frac = eff
		if rings == 1 {
			frac = eff * PartitionedStreamFraction / FusedStreamFraction
		}
	}
	return frac
}

// PlanStats reports how many plans the group has compiled and how many
// issues replayed a pooled plan — the probe the alloc-regression tests and
// the bench harness read.
func (g *Group) PlanStats() (compiled int, replays int64) {
	return g.compiled, g.replays
}
