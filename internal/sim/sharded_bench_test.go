package sim_test

import (
	"fmt"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// shardedSteadyWorkload drives ZeRO-3-patterned steady traffic over a
// pod-seam partitioned fabric: every node continuously churns NVSwitch flows
// (the parameter all-gather / gradient reduce-scatter among its four GPUs)
// while streaming partition exchanges to its ring successor through the
// store-and-forward rail handoff. Everything restarts on completion, so the
// simulation runs forever and RunUntil slices measure steady state.
func shardedSteadyWorkload(sc *topology.DCShardedCluster) {
	n := sc.Nodes()
	for node := 0; node < n; node++ {
		node := node
		g, ln := sc.GroupOf(node)
		// Intra-node churn: one long-lived flow per GPU pair on the node's
		// NVSwitch link, sized to complete (and re-enter the fair-share
		// solver) every couple of microseconds — this is the per-shard work
		// the parallel windows overlap.
		for a := 0; a < topology.GPUsPerNode; a++ {
			for bg := a + 1; bg < topology.GPUsPerNode; bg++ {
				f := &fabric.Flow{
					Path:  []*fabric.Link{g.NVFabric(ln)},
					Bytes: 180e3 + float64(node*16+a*4+bg)*1e3,
				}
				var restart func()
				restart = func() { g.Net.StartFlow(f, restart) }
				g.Net.StartFlow(f, restart)
			}
		}
		// Inter-node ring over rail 0: the sender-owned half of the route,
		// the wire hop, then the receiver-owned half; the ack crosses back
		// over the shard boundary before the next send, exactly like a
		// dependent collective.
		next := (node + 1) % n
		h := sc.Handoff(node, next)
		srcPath, dstPath, extra := sc.RailPath(node, next, 0)
		name := fmt.Sprintf("ring n%d", node)
		bytes := 1e6 + float64(node)*32e3
		var send func()
		done := func() {
			sc.Eng.Inject(sc.ShardOf(next), sc.ShardOf(node), sc.Part.Lookahead, send)
		}
		send = func() { h.SendPlanned(name, bytes, extra, nil, nil, srcPath, dstPath, done) }
		sc.EngineOf(node).Schedule(0, send)
	}
}

// BenchmarkShardedEngineSteady measures steady-state wall-clock throughput
// of the sharded engine across fabric and shard sizes. pod=1 makes every
// node a partition seam, so every shard count is realizable. The 1-shard
// rows are the serial baseline (one shard has no lookahead edges, so the
// whole run is a single full-speed window); the speedup of the 4-shard row
// over it at 16 nodes is the headline number of the parallel engine.
func BenchmarkShardedEngineSteady(b *testing.B) {
	for _, nodes := range []int{2, 8, 16} {
		for _, shards := range []int{1, 2, 4} {
			if shards > nodes {
				continue
			}
			b.Run(fmt.Sprintf("nodes=%d/shards=%d", nodes, shards), func(b *testing.B) {
				cfg, err := topology.ParseTopoSpec(fmt.Sprintf("fat-tree:nodes=%d,pod=1", nodes))
				if err != nil {
					b.Fatal(err)
				}
				// One giant telemetry window: bucket growth over long virtual
				// time would otherwise dominate the allocation profile.
				cfg.Window = sim.Time(1) << 40
				sc, err := topology.NewDCSharded(cfg, shards)
				if err != nil {
					b.Fatal(err)
				}
				defer sc.Eng.Close()
				shardedSteadyWorkload(sc)
				const slice = sim.Millisecond
				sc.Eng.RunUntil(sc.Eng.Now() + 2*slice) // warm pools and windows
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.Eng.RunUntil(sc.Eng.Now() + slice)
				}
			})
		}
	}
}
