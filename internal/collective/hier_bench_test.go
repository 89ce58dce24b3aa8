package collective

import (
	"fmt"
	"testing"

	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// BenchmarkHierarchicalAllReduce measures one compiled all-reduce round per
// op across the algorithm × cluster-size × shard-count grid. The flat twin
// runs on one shard only (its dual-ring fluid flows form one fair-share
// component spanning every NIC), so its rows above one shard are skipped and
// its per-op cost grows quadratically with the ring; the handoff-legged
// hierarchical algorithms decompose the same traffic into per-node
// components that the sharded engine retires independently. The -benchmem
// figures double as the zero-steady-state-allocation pins recorded in
// BENCH_topo.json.
func BenchmarkHierarchicalAllReduce(b *testing.B) {
	const payload = 1e9
	for _, algo := range []Algo{AlgoFlat, AlgoTwoLevel, AlgoMultiRing} {
		for _, nodes := range []int{16, 64, 256} {
			for _, shards := range []int{1, 4, 8} {
				if algo == AlgoFlat && shards > 1 {
					continue
				}
				name := fmt.Sprintf("algo=%v/nodes=%d/shards=%d", algo, nodes, shards)
				b.Run(name, func(b *testing.B) {
					old := sim.Sharded
					sim.Sharded = shards > 1
					defer func() { sim.Sharded = old }()
					// pod=1 makes every node a partition seam, so all shard
					// counts are realizable at every cluster size.
					spec := fmt.Sprintf("rail-only:nodes=%d,pod=1", nodes)
					cfg, err := topology.ParseTopoSpec(spec)
					if err != nil {
						b.Fatal(err)
					}
					cfg.Window = sim.Time(1) << 60
					sc, err := topology.NewDCSharded(cfg, shards)
					if err != nil {
						b.Fatal(err)
					}
					defer sc.Eng.Close()
					grp := NewDCGroup(sc, algo)
					grp.Precompile(AllReduce, payload)
					done := func() {}
					starts := make([]func(), nodes)
					for n := 0; n < nodes; n++ {
						n := n
						starts[n] = func() { grp.StartNode(AllReduce, payload, n, done) }
					}
					round := func() {
						for n := 0; n < nodes; n++ {
							sc.EngineOf(n).Schedule(0, starts[n])
						}
						sc.Eng.Run()
					}
					round() // warm pools, heaps, and shard workers
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						round()
					}
				})
			}
		}
	}
}
