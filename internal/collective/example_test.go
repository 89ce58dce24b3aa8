package collective_test

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/topology"
)

// Run a 2 GB ring all-reduce across the four GPUs of one node.
func Example() {
	cluster := topology.New(topology.DefaultConfig(1))
	group := collective.NewGroup(cluster, collective.NodeMajorRanks(1, 4))
	group.Start(collective.AllReduce, 2e9, func() {
		fmt.Printf("all-reduce finished at %v\n", cluster.Eng.Now())
	})
	cluster.Eng.Run()
	// Each ring hop carries 2·2GB·(3/4) = 3 GB over a 200 GB/s NVLink pair,
	// plus 6 pipeline-step latencies.
	// Output:
	// all-reduce finished at 15.024ms
}
