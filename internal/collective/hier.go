// Topology-aware hierarchical collectives over generated datacenter fabrics.
//
// On the two-node testbed a collective is one fused NCCL ring whose crossing
// hops run as fluid flows; on a 64-node fat-tree that shape both wastes the
// fabric (two NICs of four carry everything) and defeats the sharded engine
// (a fluid flow spanning every pod couples all rate allocations with zero
// lookahead, so the whole run is one shard). The hierarchical
// algorithms here fix both: intra-node phases are flows on the node's
// NVSwitch link, and the cross-node phase is striped over every rail as
// fabric.Handoff store-and-forward legs, whose wire latency is exactly the
// shard lookahead — so each node's phases execute on its home shard and the
// sharded engine finally parallelizes a realistic collective.
//
// Completion is receiver-side: a node's cross phase is done when its own
// inbound legs have landed (plus the ring's pipeline-fill latency), a
// decision made entirely from events that run on the node's shard. That —
// not any global barrier — is what keeps the simulation byte-identical at
// every shard count. Ranks are homogeneous in this model, so charging the
// ring's pipeline fill as Steps×LatNCCLStep on top of the slowest inbound
// leg (rather than chaining 2(n−1) sequential step flows) is the same fluid
// approximation the flat ring already makes.
package collective

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// Algo selects the cross-node schedule of a datacenter collective.
type Algo int

// The datacenter collective algorithms.
const (
	// AlgoFlat is the flat ring: one fused dual-ring over node leaders
	// with fluid end-to-end crossing flows on rails 0/1, on a one-shard
	// cluster — the testbed shape scaled up.
	AlgoFlat Algo = iota
	// AlgoTwoLevel is the hierarchical schedule: intra-node phase on the
	// NVSwitch link, cross-node ring striped over all rails as handoff
	// legs, intra-node completion phase.
	AlgoTwoLevel
	// AlgoMultiRing stripes the node-leader ring over all rails as handoff
	// legs with no intra-node redistribution phases — the idealized
	// multi-ring bound.
	AlgoMultiRing
)

var algoNames = map[Algo]string{
	AlgoFlat: "flat", AlgoTwoLevel: "2level", AlgoMultiRing: "multiring",
}

func (a Algo) String() string {
	if n, ok := algoNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo parses a -algo flag value.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "flat", "ring":
		return AlgoFlat, nil
	case "2level", "two-level", "hier":
		return AlgoTwoLevel, nil
	case "multiring", "multi-ring":
		return AlgoMultiRing, nil
	}
	return 0, fmt.Errorf("collective: unknown algorithm %q (want flat, 2level or multiring)", s)
}

// DCStreamFraction is the fraction of a datacenter link's bidirectional
// aggregate one collective stream direction attains. Purpose-built DC nodes
// put the NIC on the GPU's own PCIe switch — no I/O-die crossbar on the
// path — so the attainable fraction is the purpose-built scenario's 45%
// (topology.PurposeBuiltConfig), not the testbed's 26%.
const DCStreamFraction = 0.45

// preOp returns the intra-node phase run before the cross-node phase of a
// 2-level collective (an invalid Op sentinel of -1 means none).
func preOp(op Op) (Op, bool) {
	switch op {
	case AllReduce, ReduceScatter:
		return ReduceScatter, true
	case Reduce:
		return Reduce, true
	}
	return 0, false
}

// postOp returns the intra-node phase run after the cross-node phase.
func postOp(op Op) (Op, bool) {
	switch op {
	case AllReduce, AllGather:
		return AllGather, true
	case Broadcast:
		return Broadcast, true
	}
	return 0, false
}

// DCGroup runs collectives over every node of a datacenter cluster. Plans
// are compiled once per (op, payload) shape — preallocated flows, the
// group's shared ring routes and stream caps, bound-once closures — and
// replayed with zero allocations. Precompile every shape before the
// simulation starts: compilation populates a map that replay then reads
// concurrently from all shards.
type DCGroup struct {
	sc   *topology.DCShardedCluster
	algo Algo

	// routes and nv are the cluster-bound parts every hierarchical plan
	// references, built once per group: routes[node*rails+rail] is the
	// node's rail stripe to its ring successor, and nv[node:node+1] the
	// node's NVSwitch flow path.
	routes []dcRoute
	nv     []*fabric.Link

	plans    map[dcKey]dcPlan
	compiled int
}

type dcKey struct {
	op      Op
	payload float64
}

// dcRoute is one rail stripe from a node to its ring successor: the
// handoff, the route's sender- and receiver-owned halves with their
// capacity-epoch-fenced stream caps, and its extra switching latency. Plans
// share a route read-only; each cap is evaluated only on the shard owning
// its half, whichever plan's leg asks.
type dcRoute struct {
	h                *fabric.Handoff
	extra            sim.Time
	srcCap, dstCap   *fabric.PathCap
	srcPath, dstPath []*fabric.Link
}

// dcPlan is the compiled per-shape schedule: one record per node. Flat plans
// additionally share a joiner (global completion, like the fused ring).
type dcPlan struct {
	nodes []dcNode
	join  *flatJoin // non-nil for flat plans
}

// dcNode is one node's compiled schedule and per-round state. All mutable
// fields are touched only from the node's own shard: startNode and the
// pre/post flow completions run there by construction, and an inbound leg's
// land closure is bound to the *destination* record, so the handoff
// executes it on the destination shard.
type dcNode struct {
	eng  *sim.Engine
	net  *fabric.Network
	node int

	pre, post       fabric.Flow
	hasPre, hasPost bool
	routes          []dcRoute // outbound legs, one per rail
	legBytes        float64
	expect          int // inbound legs per round
	crossLat        sim.Time

	// round state
	preDone bool
	arrived int // inbound legs landed; may run ahead of this node's round
	onDone  func()

	// bound-once closures
	launch, land, after, postCB func()
}

// flatJoin is the flat ring's global completion: the fused ring finishes
// when the slowest hop drains, then every node resumes. Callbacks fire in
// node-index order regardless of flow completion order, so the replay is
// insensitive to same-time event permutations.
type flatJoin struct {
	eng       *sim.Engine
	remaining int
	total     int
	latency   sim.Time
	flows     []fabric.Flow
	paths     [][]*fabric.Link
	caps      []*fabric.PathCap
	nodeDone  []func()
	flowCB    func()
	fire      func()
}

// NewDCGroup builds the collective group over all nodes of sc. A flat group
// requires a one-shard cluster: its fluid crossing flows form one fair-share
// domain that no shard boundary may split.
func NewDCGroup(sc *topology.DCShardedCluster, algo Algo) *DCGroup {
	if algo == AlgoFlat && sc.Part.Shards > 1 {
		panic(fmt.Sprintf("collective: flat algorithm on a %d-shard cluster", sc.Part.Shards))
	}
	g := &DCGroup{sc: sc, algo: algo, plans: make(map[dcKey]dcPlan)}
	if algo != AlgoFlat {
		g.bindRoutes()
	}
	return g
}

// bindRoutes builds the ring routes and NVSwitch paths hierarchical plans
// share, from three slabs: route records, stream caps and route links.
func (g *DCGroup) bindRoutes() {
	sc := g.sc
	n, rails := sc.Nodes(), sc.Cfg.Rails
	g.nv = make([]*fabric.Link, n)
	g.routes = make([]dcRoute, n*rails)
	caps := make([]fabric.PathCap, 2*len(g.routes))
	// Sized for the deepest route half (two links); a longer route only
	// regrows the slab, and the halves already cut keep the old backing.
	links := make([]*fabric.Link, 0, 4*len(g.routes))
	for i := 0; i < n; i++ {
		g.nv[i] = sc.NVFabric(i)
		succ := (i + 1) % n
		grp, _ := sc.GroupOf(i)
		succGrp, _ := sc.GroupOf(succ)
		for r := 0; r < rails; r++ {
			k := i*rails + r
			rt := &g.routes[k]
			start := len(links)
			var nsrc int
			links, nsrc, rt.extra = sc.AppendRailPath(links, i, succ, r)
			mid, end := start+nsrc, len(links)
			rt.srcPath, rt.dstPath = links[start:mid:mid], links[mid:end:end]
			caps[2*k] = *fabric.NewPathCap(grp.Net, DCStreamFraction, rt.srcPath)
			caps[2*k+1] = *fabric.NewPathCap(succGrp.Net, DCStreamFraction, rt.dstPath)
			rt.srcCap, rt.dstCap = &caps[2*k], &caps[2*k+1]
			rt.h = sc.Handoff(i, succ)
		}
	}
}

// Algo returns the group's algorithm.
func (g *DCGroup) Algo() Algo { return g.algo }

// Compiled returns the number of compiled plan shapes.
func (g *DCGroup) Compiled() int { return g.compiled }

// Precompile builds the plan for one (op, payload) shape. Must be called
// for every shape before the simulation runs; replay only reads the plan
// map, which keeps it safe from every shard without locking.
func (g *DCGroup) Precompile(op Op, payload float64) {
	key := dcKey{op: op, payload: payload}
	if _, ok := g.plans[key]; ok {
		return
	}
	if g.sc.Nodes() == 1 || payload <= 0 {
		g.plans[key] = dcPlan{}
		return
	}
	if g.algo == AlgoFlat {
		g.plans[key] = g.compileFlat(op, payload)
	} else {
		g.plans[key] = g.compileHier(op, payload)
	}
	g.compiled++
}

// StartNode launches node's share of the collective and calls onDone (from
// the node's engine context) when the node has completed it. Every node must
// start each round exactly once; rounds of one shape on one node may not
// overlap. Must be called from the node's shard execution context.
func (g *DCGroup) StartNode(op Op, payload float64, node int, onDone func()) {
	key := dcKey{op: op, payload: payload}
	p, ok := g.plans[key]
	if !ok {
		panic(fmt.Sprintf("collective: %v payload %g not precompiled", op, payload))
	}
	if p.nodes == nil {
		g.sc.EngineOf(node).Schedule(0, onDone)
		return
	}
	rec := &p.nodes[node]
	if rec.onDone != nil {
		panic(fmt.Sprintf("collective: node %d restarted %v payload %g mid-round", node, op, payload))
	}
	rec.onDone = onDone
	if p.join != nil {
		p.join.startNode(rec)
		return
	}
	if rec.hasPre {
		rec.net.StartFlow(&rec.pre, rec.launch)
	} else {
		rec.launch()
	}
}

// compileHier builds the 2-level / multi-ring plan: per node, an optional
// NVSwitch pre-flow, one outbound handoff leg per rail to the ring
// successor, and an optional NVSwitch post-flow. Volumes are the textbook
// ring costs: the cross-node phase carries WireBytesPerHop(op, N, V) per
// node pair, striped evenly over the rails; 2-level adds the intra-node
// reduce-scatter/all-gather phases on the payload, and their pipeline steps
// to the ring's. The routes come from the group, and every flow is named
// after a link the blueprint already named: a leg after its source NIC, a
// phase after its node's NVSwitch.
func (g *DCGroup) compileHier(op Op, payload float64) dcPlan {
	sc := g.sc
	n := sc.Nodes()
	rails := sc.Cfg.Rails
	crossWire := WireBytesPerHop(op, n, payload) / float64(rails)
	steps := Steps(op, n)
	var preVol, postVol float64
	if g.algo == AlgoTwoLevel {
		if o, ok := preOp(op); ok {
			preVol = WireBytesPerHop(o, topology.GPUsPerNode, payload)
			steps += Steps(o, topology.GPUsPerNode)
		}
		if o, ok := postOp(op); ok {
			postVol = WireBytesPerHop(o, topology.GPUsPerNode, payload)
			steps += Steps(o, topology.GPUsPerNode)
		}
	}
	crossLat := sim.Time(steps) * topology.LatNCCLStep

	plan := dcPlan{nodes: make([]dcNode, n)}
	for i := range plan.nodes {
		rec := &plan.nodes[i]
		grp, _ := sc.GroupOf(i)
		rec.eng = sc.EngineOf(i)
		rec.net = grp.Net
		rec.node = i
		rec.routes = g.routes[i*rails : (i+1)*rails]
		rec.legBytes = crossWire
		rec.expect = rails
		rec.crossLat = crossLat
		nv := g.nv[i : i+1 : i+1]
		if preVol > 0 {
			rec.hasPre = true
			rec.pre.Name = nv[0].Name
			rec.pre.Path = nv
			rec.pre.Bytes = preVol
		}
		if postVol > 0 {
			rec.hasPost = true
			rec.post.Name = nv[0].Name
			rec.post.Path = nv
			rec.post.Bytes = postVol
		}
		rec.land = func() {
			rec.arrived++
			rec.maybeCross()
		}
	}
	// Bind the rest of the replay closures once every record's land exists:
	// a node's legs deliver to its successor's.
	for i := range plan.nodes {
		rec := &plan.nodes[i]
		succLand := plan.nodes[(i+1)%n].land
		rec.launch = func() {
			rec.preDone = true
			for r := range rec.routes {
				rt := &rec.routes[r]
				rt.h.SendPlanned(rt.srcPath[0].Name, rec.legBytes, rt.extra, rt.srcCap, rt.dstCap, rt.srcPath, rt.dstPath, succLand)
			}
			rec.maybeCross()
		}
		rec.after = func() {
			if rec.hasPost {
				rec.net.StartFlow(&rec.post, rec.postCB)
			} else {
				rec.postCB()
			}
		}
		rec.postCB = func() {
			cb := rec.onDone
			rec.onDone = nil
			cb()
		}
	}
	return plan
}

// maybeCross advances the node past its cross phase once its own pre phase
// and all expected inbound legs are in. Early arrivals (a successor still in
// its previous round) simply accumulate: legs of one shape are
// interchangeable, so counting is the whole rendezvous.
func (rec *dcNode) maybeCross() {
	if !rec.preDone || rec.arrived < rec.expect {
		return
	}
	rec.preDone = false
	rec.arrived -= rec.expect
	rec.eng.Schedule(rec.crossLat, rec.after)
}

// compileFlat builds the flat ring: a fused ring over node leaders with
// the dual-ring NIC assignment the testbed group uses (forward ring on rail
// 0, reverse on rail 1; a single-rail fabric gets one ring), each crossing
// hop a fluid end-to-end flow over source NIC, trunks and destination NIC.
// Completion is global — the fused collective finishes when the slowest hop
// drains — with per-node callbacks fired in node-index order. Each flow is
// named after its source NIC.
func (g *DCGroup) compileFlat(op Op, payload float64) dcPlan {
	sc := g.sc
	n := sc.Nodes()
	rings := 2
	if sc.Cfg.Rails < 2 {
		rings = 1
	}
	wire := WireBytesPerHop(op, n, payload) / float64(rings)

	grp := sc.Groups[0]
	join := &flatJoin{
		eng:      grp.Eng,
		total:    n * rings,
		nodeDone: make([]func(), n),
	}
	plan := dcPlan{nodes: make([]dcNode, n), join: join}
	for i := range plan.nodes {
		plan.nodes[i] = dcNode{eng: grp.Eng, net: grp.Net, node: i}
	}
	var maxExtra sim.Time
	addLeg := func(from, to, rail int) {
		path, _, extra := sc.AppendRailPath(nil, from, to, rail)
		if extra > maxExtra {
			maxExtra = extra
		}
		join.paths = append(join.paths, path)
		join.caps = append(join.caps, fabric.NewPathCap(grp.Net, DCStreamFraction, path))
		join.flows = append(join.flows, fabric.Flow{Name: path[0].Name, Bytes: wire})
	}
	for i := 0; i < n; i++ {
		addLeg(i, (i+1)%n, 0)
		if rings == 2 {
			addLeg(i, (i-1+n)%n, 1)
		}
	}
	for j := range join.flows {
		join.flows[j].Path = join.paths[j]
	}
	join.latency = sim.Time(Steps(op, n))*topology.LatNCCLStep + maxExtra
	join.flowCB = func() {
		join.remaining--
		if join.remaining == 0 {
			join.eng.Schedule(join.latency, join.fire)
		}
	}
	join.fire = func() {
		join.remaining = join.total
		for i, cb := range join.nodeDone {
			join.nodeDone[i] = nil
			cb()
		}
	}
	join.remaining = join.total
	return plan
}

// startNode registers one node's callbacks with the flat joiner and starts
// that node's outbound ring legs. The fused ring's flows all run
// concurrently, so per-node start order does not matter; node i owns flows
// [i*rings, (i+1)*rings).
func (j *flatJoin) startNode(rec *dcNode) {
	if j.nodeDone[rec.node] != nil {
		panic(fmt.Sprintf("collective: node %d restarted flat round", rec.node))
	}
	j.nodeDone[rec.node] = rec.onDone
	rec.onDone = nil
	rings := j.total / len(j.nodeDone)
	// remaining counts every flow of the round (armed at compile time and
	// re-armed in fire), so it cannot reach zero until every node has both
	// entered the round and drained its legs.
	for k := rec.node * rings; k < (rec.node+1)*rings; k++ {
		j.flows[k].RateLimit = j.caps[k].Value()
		rec.net.StartFlow(&j.flows[k], j.flowCB)
	}
}
