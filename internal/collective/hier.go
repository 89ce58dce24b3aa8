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
	"llmbw/internal/scenario"
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
// are compiled once per (op, payload) shape — preallocated flows, interned
// routes, capacity-epoch-fenced stream caps, bound-once closures — and
// replayed with zero allocations. Precompile every shape before the
// simulation starts: compilation populates a map that replay then reads
// concurrently from all shards.
type DCGroup struct {
	sc   *topology.DCShardedCluster
	algo Algo

	plans    map[dcKey]dcPlan
	compiled int
}

type dcKey struct {
	op      Op
	payload float64
}

// dcPlan is the compiled per-shape schedule: one record per node. Flat plans
// additionally share a joiner (global completion, like the fused ring).
type dcPlan struct {
	nodes []*dcNode
	join  *flatJoin // non-nil for flat plans
}

// dcNode is one node's compiled schedule and per-round state. All mutable
// fields are touched only from the node's own shard: startNode and the
// pre/post flow completions run there by construction, and an inbound leg's
// onLand closure is bound to the *destination* record, so the handoff
// executes it on the destination shard.
type dcNode struct {
	g    *DCGroup
	eng  *sim.Engine
	net  *fabric.Network
	node int

	pre, post        fabric.Flow
	prePath, posPath []*fabric.Link
	hasPre, hasPost  bool
	legs             []dcLeg
	expect           int // inbound legs per round
	crossLat         sim.Time

	// round state
	preDone bool
	arrived int // inbound legs landed; may run ahead of this node's round
	onDone  func()

	// bound-once closures
	launch, land, after, postCB func()
}

// dcLeg is one compiled outbound handoff leg (rail stripe to the ring
// successor).
type dcLeg struct {
	h        *fabric.Handoff
	name     string
	bytes    float64
	extra    sim.Time
	srcCap   *fabric.PathCap
	dstCap   *fabric.PathCap
	srcPath  []*fabric.Link
	dstPath  []*fabric.Link
	destLand func() // successor-side arrival; runs on the successor's shard
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
	return &DCGroup{sc: sc, algo: algo, plans: make(map[dcKey]dcPlan)}
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
	rec := p.nodes[node]
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

// RunNode executes node's share synchronously from its driver process.
func (g *DCGroup) RunNode(p *sim.Proc, op Op, payload float64, node int) {
	p.Await(func(resume func()) { g.StartNode(op, payload, node, resume) })
}

// hierShape is the cluster-independent part of a compiled hierarchical plan:
// phase volumes, the ring's pipeline-fill latency, and every rendered flow
// and leg name. It is a pure function of (algo, op, topology spec, payload) —
// nothing in it references links, engines or capacities — so one shape is
// shared read-only by every cluster's plan of that signature and cached
// across runs. Binding a shape to a live cluster (paths, handoffs, stream
// caps, closures) stays per-plan: those parts hold capacity-coupled state
// that the fabric revalidates in place via its capEpoch fence.
type hierShape struct {
	crossWire        float64
	crossLat         sim.Time
	preVol, postVol  float64
	preName, posName []string   // per node ("" when the phase is absent)
	legName          [][]string // per node, per rail
}

// flatShape is the flat ring's portable part: the per-leg wire volume, ring
// count, step latency and flow names (in addLeg order: per node, rail 0 then
// rail 1 when dual-ring).
type flatShape struct {
	wire    float64
	rings   int
	stepLat sim.Time
	name    []string
}

// shapeCache is the collective tier of the warm-artifact store, keyed by
// (algo|op|spec|payload). Shapes are capacity-independent: epoch 0.
var shapeCache = scenario.New("collective.shapes", 256)

func makeHierShape(algo Algo, op Op, cfg topology.DCConfig, payload float64) *hierShape {
	n := cfg.Nodes
	rails := cfg.Rails
	gpus := topology.GPUsPerNode

	sh := &hierShape{crossWire: WireBytesPerHop(op, n, payload) / float64(rails)}
	steps := Steps(op, n)
	if algo == AlgoTwoLevel {
		if o, ok := preOp(op); ok {
			sh.preVol = WireBytesPerHop(o, gpus, payload)
			steps += Steps(o, gpus)
		}
		if o, ok := postOp(op); ok {
			sh.postVol = WireBytesPerHop(o, gpus, payload)
			steps += Steps(o, gpus)
		}
	}
	sh.crossLat = sim.Time(steps) * topology.LatNCCLStep
	sh.preName = make([]string, n)
	sh.posName = make([]string, n)
	sh.legName = make([][]string, n)
	for i := 0; i < n; i++ {
		if sh.preVol > 0 {
			sh.preName[i] = fmt.Sprintf("%s/%v/n%d/pre", algo, op, i)
		}
		if sh.postVol > 0 {
			sh.posName[i] = fmt.Sprintf("%s/%v/n%d/post", algo, op, i)
		}
		legs := make([]string, rails)
		for r := 0; r < rails; r++ {
			legs[r] = fmt.Sprintf("%s/%v/n%d/r%d", algo, op, i, r)
		}
		sh.legName[i] = legs
	}
	return sh
}

func makeFlatShape(op Op, cfg topology.DCConfig, payload float64) *flatShape {
	n := cfg.Nodes
	rings := 2
	if cfg.Rails < 2 {
		rings = 1
	}
	sh := &flatShape{
		wire:    WireBytesPerHop(op, n, payload) / float64(rings),
		rings:   rings,
		stepLat: sim.Time(Steps(op, n)) * topology.LatNCCLStep,
	}
	for i := 0; i < n; i++ {
		sh.name = append(sh.name, fmt.Sprintf("flat/%v/n%d/r0", op, i))
		if rings == 2 {
			sh.name = append(sh.name, fmt.Sprintf("flat/%v/n%d/r1", op, i))
		}
	}
	return sh
}

// shapeFor fetches (computing on first use) the portable shape of one plan
// signature through the shape cache.
func (g *DCGroup) shapeFor(op Op, payload float64) any {
	cfg := g.sc.Cfg
	key := scenario.Intern(fmt.Sprintf("%v|%v|%s|%g", g.algo, op, cfg.Spec(), payload))
	v, _ := shapeCache.Do(key, 0, func() (any, error) {
		if g.algo == AlgoFlat {
			return makeFlatShape(op, cfg, payload), nil
		}
		return makeHierShape(g.algo, op, cfg, payload), nil
	})
	return v
}

// compileHier builds the 2-level / multi-ring plan: per node, an optional
// NVSwitch pre-flow, one outbound handoff leg per rail to the ring
// successor, and an optional NVSwitch post-flow. Volumes are the textbook
// ring costs: the cross-node phase carries WireBytesPerHop(op, N, V) per
// node pair, striped evenly over the rails; 2-level adds the intra-node
// reduce-scatter/all-gather phases on the payload. The volumes, latency and
// names come from the cached shape; this function only binds them to the
// live cluster.
func (g *DCGroup) compileHier(op Op, payload float64) dcPlan {
	sc := g.sc
	n := sc.Nodes()
	rails := sc.Cfg.Rails
	sh := g.shapeFor(op, payload).(*hierShape)

	plan := dcPlan{nodes: make([]*dcNode, n)}
	for i := 0; i < n; i++ {
		grp, _ := sc.GroupOf(i)
		plan.nodes[i] = &dcNode{
			g:        g,
			eng:      sc.EngineOf(i),
			net:      grp.Net,
			node:     i,
			hasPre:   sh.preVol > 0,
			hasPost:  sh.postVol > 0,
			expect:   rails,
			crossLat: sh.crossLat,
		}
	}
	for i, rec := range plan.nodes {
		nv := sc.NVFabric(i)
		if rec.hasPre {
			rec.prePath = []*fabric.Link{nv}
			rec.pre.Name = sh.preName[i]
			rec.pre.Path = rec.prePath
			rec.pre.Bytes = sh.preVol
		}
		if rec.hasPost {
			rec.posPath = []*fabric.Link{nv}
			rec.post.Name = sh.posName[i]
			rec.post.Path = rec.posPath
			rec.post.Bytes = sh.postVol
		}
		succ := (i + 1) % n
		succRec := plan.nodes[succ]
		succGrp, _ := sc.GroupOf(succ)
		grp, _ := sc.GroupOf(i)
		for r := 0; r < rails; r++ {
			src, dst, extra := sc.RailPath(i, succ, r)
			rec.legs = append(rec.legs, dcLeg{
				h:        sc.Handoff(i, succ),
				name:     sh.legName[i][r],
				bytes:    sh.crossWire,
				extra:    extra,
				srcCap:   fabric.NewPathCap(grp.Net, DCStreamFraction, src),
				dstCap:   fabric.NewPathCap(succGrp.Net, DCStreamFraction, dst),
				srcPath:  src,
				dstPath:  dst,
				destLand: succRec.land,
			})
		}
	}
	// Bind the replay closures once. destLand above captured rec.land before
	// it was assigned, so bind land first via a second pass over the same
	// records.
	for _, rec := range plan.nodes {
		rec := rec
		rec.land = func() {
			rec.arrived++
			rec.maybeCross()
		}
		rec.launch = func() {
			rec.preDone = true
			for j := range rec.legs {
				l := &rec.legs[j]
				l.h.SendPlanned(l.name, l.bytes, l.extra, l.srcCap, l.dstCap, l.srcPath, l.dstPath, l.destLand)
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
	// destLand was captured before land existed; patch the leg closures now
	// that every record's land is bound.
	for _, rec := range plan.nodes {
		succ := plan.nodes[(rec.node+1)%n]
		for j := range rec.legs {
			rec.legs[j].destLand = succ.land
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
// drains — with per-node callbacks fired in node-index order.
func (g *DCGroup) compileFlat(op Op, payload float64) dcPlan {
	sc := g.sc
	n := sc.Nodes()
	sh := g.shapeFor(op, payload).(*flatShape)
	rings := sh.rings

	grp := sc.Groups[0]
	join := &flatJoin{
		eng:      grp.Eng,
		total:    n * rings,
		nodeDone: make([]func(), n),
	}
	plan := dcPlan{nodes: make([]*dcNode, n), join: join}
	for i := 0; i < n; i++ {
		plan.nodes[i] = &dcNode{g: g, eng: grp.Eng, net: grp.Net, node: i}
	}
	var maxExtra sim.Time
	addLeg := func(from, to, rail int) {
		src, dst, extra := sc.RailPath(from, to, rail)
		if extra > maxExtra {
			maxExtra = extra
		}
		path := append(append([]*fabric.Link(nil), src...), dst...)
		join.paths = append(join.paths, path)
		join.caps = append(join.caps, fabric.NewPathCap(grp.Net, DCStreamFraction, path))
		join.flows = append(join.flows, fabric.Flow{
			Name:  sh.name[len(join.flows)],
			Bytes: sh.wire,
		})
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
	join.latency = sh.stepLat + maxExtra
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
