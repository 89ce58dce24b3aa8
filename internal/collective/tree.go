package collective

import (
	"fmt"
	"math"

	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// Tree all-reduce. NCCL switches from rings to (double binary) trees for
// latency-bound payloads: a tree completes in O(log n) steps instead of the
// ring's O(n), at the cost of concentrating traffic on the tree edges. The
// training strategies in this repository default to rings (which dominate at
// the paper's payload sizes); the tree exists for latency studies and as
// the auto-selected algorithm for small operations.

// TreeThresholdBytes is the payload below which StartAuto picks the tree
// (NCCL's crossover is on the order of a megabyte on such platforms).
const TreeThresholdBytes = 1 << 20

// treeEdges returns the parent index of each rank in a binary tree rooted at
// rank 0 (heap ordering), which maps well onto node-major rank layouts: the
// first inter-node edge appears as high in the tree as possible.
func treeEdges(n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for child := 1; child < n; child++ {
		edges = append(edges, [2]int{(child - 1) / 2, child})
	}
	return edges
}

// TreeSteps returns the number of latency steps of a tree all-reduce
// (reduce up + broadcast down).
func TreeSteps(n int) int {
	if n <= 1 {
		return 0
	}
	return 2 * int(math.Ceil(math.Log2(float64(n))))
}

// StartTree launches a tree all-reduce of the payload: every tree edge
// carries the payload once up (reduce) and once down (broadcast).
func (g *Group) StartTree(payload float64, onDone func()) {
	n := len(g.ranks)
	eng := g.cluster.Eng
	if n == 1 || payload <= 0 {
		eng.Schedule(0, onDone)
		return
	}
	p := g.acquirePlan(planKey{op: AllReduce, payload: payload, tree: true})
	p.start(onDone)
}

// compileTree builds one flow per tree edge in edge order, each carrying the
// payload up and down; node-crossing edges are capped at the fused stream
// rate.
func (p *Plan) compileTree() {
	g := p.g
	n := len(g.ranks)
	p.latency = sim.Time(TreeSteps(n)) * topology.LatNCCLStep
	p.frac = FusedStreamFraction
	if eff := g.cluster.Cfg.StreamEff; eff > 0 {
		p.frac = eff
	}
	for i, e := range treeEdges(n) {
		a, b := g.ranks[e[0]], g.ranks[e[1]]
		var route topology.Route
		cross := a.Node != b.Node
		if cross {
			route = g.cluster.GPUToRemoteGPU(a, b)
		} else {
			route = g.cluster.GPUToGPU(a, b)
		}
		p.addLeg(route, fmt.Sprintf("tree-allreduce/edge%d", i), 2*p.key.payload, cross)
	}
	p.applyCrossCaps()
}

// StartAuto picks the tree for small all-reduces and the dual-ring algorithm
// otherwise — NCCL's algorithm selection in miniature.
func (g *Group) StartAuto(op Op, payload float64, onDone func()) {
	if op == AllReduce && payload < TreeThresholdBytes {
		g.StartTree(payload, onDone)
		return
	}
	g.Start(op, payload, onDone)
}

// RunTree executes a tree all-reduce synchronously from a driver process.
func (g *Group) RunTree(p *sim.Proc, payload float64) {
	p.Await(func(resume func()) { g.StartTree(payload, resume) })
}
