package topology

import (
	"fmt"

	"llmbw/internal/sched"
	"llmbw/internal/sim"
)

// Partition assigns the nodes of a generated fabric to simulation shards in
// contiguous blocks aligned to its seams (see MakeRailPartition). Seams are
// the natural cut: every pod trunk and node link stays inside one shard's
// fair-share domain, and the only cross-shard traffic is the store-and-
// forward handoff whose one-way wire latency becomes the conservative
// lookahead window.
type Partition struct {
	Shards    int
	Of        []int    // node -> shard
	First     []int    // shard -> first global node of its block
	Counts    []int    // shard -> nodes in its block
	Lookahead sim.Time // inter-shard lookahead (the wire latency)
}

// MakeRailPartition splits nodes into shards contiguous blocks aligned to
// seams — the block sizes (pods of a datacenter fabric, rails of a rail
// group) that a shard boundary must not cut through, because the links
// inside one block form a single fair-share domain. Shard counts above the
// block count clamp to it (a shard that would start mid-block, or own no
// block at all, cannot exist). Blocks are distributed round-robin over the
// shards, so shard sizes differ by at most one block. A single-block seam
// list therefore always yields one shard, however many were requested —
// the single-node-rail degenerate case.
func MakeRailPartition(seams []int, shards int, lookahead sim.Time) Partition {
	if lookahead < sim.Nanosecond {
		panic(fmt.Sprintf("topology: rail partition lookahead %v must be at least 1ns", lookahead))
	}
	if len(seams) == 0 {
		panic("topology: rail partition needs at least one block")
	}
	nodes := 0
	for i, b := range seams {
		if b < 1 {
			panic(fmt.Sprintf("topology: rail partition block %d has %d nodes", i, b))
		}
		nodes += b
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(seams) {
		shards = len(seams)
	}
	p := Partition{
		Shards:    shards,
		Of:        make([]int, nodes),
		First:     make([]int, shards),
		Counts:    make([]int, shards),
		Lookahead: lookahead,
	}
	node, block := 0, 0
	for s, cnt := range sched.RoundRobin(len(seams), shards) {
		p.First[s] = node
		for i := 0; i < cnt; i++ {
			for j := 0; j < seams[block]; j++ {
				p.Of[node] = s
				node++
			}
			p.Counts[s] += seams[block]
			block++
		}
	}
	return p
}
