// Package collective models NCCL-style collective operations over the
// simulated cluster. Operations run as ring algorithms: the group's GPUs are
// ordered so that at most one ring segment crosses each node boundary in each
// direction (NCCL's topology-aware ring construction), each adjacent pair
// carries the algorithm's per-hop wire volume concurrently, and the
// operation completes when the slowest hop finishes — the fluid-flow
// equivalent of the pipelined ring.
//
// Per-hop wire volumes are the textbook ring costs for payload V over n
// ranks:
//
//	all-reduce       2·V·(n−1)/n
//	all-gather       V·(n−1)/n   (V = full gathered size)
//	reduce-scatter   V·(n−1)/n
//	broadcast/reduce V
//
// DDP and ZeRO-1/2 therefore move the same volume (all-reduce versus
// reduce-scatter + all-gather), while ZeRO-3's parameter all-gathers add the
// 50% the ZeRO paper reports.
package collective

import (
	"fmt"

	"llmbw/internal/topology"
)

// Op is a collective operation kind.
type Op int

// Supported collectives.
const (
	AllReduce Op = iota
	AllGather
	ReduceScatter
	Broadcast
	Reduce
)

var opNames = map[Op]string{
	AllReduce: "all-reduce", AllGather: "all-gather",
	ReduceScatter: "reduce-scatter", Broadcast: "broadcast", Reduce: "reduce",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// WireBytesPerHop returns the bytes each ring hop carries for the operation
// with the given payload over n ranks.
func WireBytesPerHop(op Op, n int, payload float64) float64 {
	if n <= 1 {
		return 0
	}
	f := float64(n-1) / float64(n)
	switch op {
	case AllReduce:
		return 2 * payload * f
	case AllGather, ReduceScatter:
		return payload * f
	case Broadcast, Reduce:
		return payload
	default:
		panic(fmt.Sprintf("collective: unknown op %d", int(op)))
	}
}

// Steps returns the number of pipeline steps (for latency accounting).
func Steps(op Op, n int) int {
	if n <= 1 {
		return 0
	}
	if op == AllReduce {
		return 2 * (n - 1)
	}
	return n - 1
}

// FusedStreamFraction is the fraction of a NIC's bidirectional aggregate one
// NCCL ring direction attains across the node boundary: the paper's GPU-RoCE
// stress test (Fig 4-b) reaches 52% of theoretical through the IOD crossbar,
// i.e. ≈ 26% per direction — 13 GB/s on the 200 GbE NICs, consistent with
// Table IV's dual-node RoCE averages.
const FusedStreamFraction = 0.26

// PartitionedStreamFraction is the same for single-ring (DeepSpeed
// partitioned) collectives: their many smaller per-partition operations
// attain slightly less of the link than one fused NCCL stream.
const PartitionedStreamFraction = 0.20

// Group is a fixed set of GPUs that perform collectives together.
type Group struct {
	cluster *topology.Cluster
	ranks   []topology.GPU
	hops    []topology.Route // ring hop i: ranks[i] -> ranks[(i+1)%n]
	rhops   []topology.Route // reverse ring hop i: ranks[(i+1)%n] -> ranks[i]
	crosses []bool           // hop i crosses the node boundary

	// plans is the per-shape compiled-plan free list (see Plan); compiled
	// and replays are its probes.
	plans    map[planKey][]*Plan
	compiled int
	replays  int64
}

// NewGroup builds a collective group over the given GPUs. The ring order is
// the given rank order; callers should list GPUs node-major (all of node 0,
// then node 1, …) so the ring crosses each node boundary once per direction,
// as NCCL does.
func NewGroup(c *topology.Cluster, ranks []topology.GPU) *Group {
	if len(ranks) == 0 {
		panic("collective: empty group")
	}
	g := &Group{cluster: c, ranks: append([]topology.GPU(nil), ranks...)}
	n := len(ranks)
	if n == 1 {
		return g
	}
	for i := 0; i < n; i++ {
		a, b := ranks[i], ranks[(i+1)%n]
		if a.Node == b.Node {
			g.hops = append(g.hops, c.GPUToGPU(a, b))
			g.rhops = append(g.rhops, c.GPUToGPU(b, a))
			g.crosses = append(g.crosses, false)
		} else {
			// NCCL binds channels to NICs round-robin: the forward ring
			// crosses on NIC 0, the reverse ring on NIC 1, regardless of
			// which socket the endpoint GPUs live on. A GPU on the other
			// socket therefore reaches its NIC over xGMI — the dual-node
			// cross-socket traffic of the paper's Section IV-E2.
			g.hops = append(g.hops, c.GPUToRemoteGPUVia(a, b, 0, 0))
			g.rhops = append(g.rhops, c.GPUToRemoteGPUVia(b, a, 1, 1))
			g.crosses = append(g.crosses, true)
		}
	}
	return g
}

// Start launches the collective and calls onDone (from engine context) when
// it completes. Payload semantics: for AllReduce/Broadcast/Reduce it is the
// tensor size; for AllGather/ReduceScatter it is the full (unsharded) size.
// It uses NCCL's dual-ring construction; see StartRings.
func (g *Group) Start(op Op, payload float64, onDone func()) {
	g.StartRings(op, payload, 0, 2, onDone)
}

// StartRings launches the collective over the given number of rings (1 or
// 2). With two rings the payload splits in half over a forward and a reverse
// ring, driving both NICs of each node and attaining ≈ 2×InterNodeStreamBW
// across the node boundary — the behaviour of a single fused NCCL all-reduce
// (PyTorch DDP). DeepSpeed 0.7.1's partitioned reduce-scatter/all-gather
// phases issue many smaller per-partition operations that do not saturate a
// second channel, so the training strategies run those with rings=1.
// hopRateLimit (0 = unlimited) additionally caps each leg, modelling
// buffer-starved collectives (ZeRO-1 at the memory limit, paper Table V).
func (g *Group) StartRings(op Op, payload, hopRateLimit float64, rings int, onDone func()) {
	n := len(g.ranks)
	eng := g.cluster.Eng
	if n == 1 || payload <= 0 {
		eng.Schedule(0, onDone)
		return
	}
	if rings != 1 && rings != 2 {
		panic(fmt.Sprintf("collective: unsupported ring count %d", rings))
	}
	p := g.acquirePlan(planKey{op: op, payload: payload, limit: hopRateLimit, rings: int8(rings)})
	p.start(onDone)
}

// NodeMajorRanks returns the canonical ring order for a cluster: GPUs of
// node 0 in index order, then node 1, and so on.
func NodeMajorRanks(nodes, gpusPerNode int) []topology.GPU {
	var out []topology.GPU
	for n := 0; n < nodes; n++ {
		for g := 0; g < gpusPerNode; g++ {
			out = append(out, topology.GPU{Node: n, Index: g})
		}
	}
	return out
}
