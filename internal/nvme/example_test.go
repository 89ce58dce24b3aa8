package nvme_test

import (
	"fmt"

	"llmbw/internal/nvme"
	"llmbw/internal/topology"
)

// Write 10 GB to the paper's dual-drive RAID0 scratch volume: the first
// gigabytes burst into the drives' DRAM caches at PCIe speed, the rest
// drain at the sustained NAND rate.
func Example() {
	cfg := topology.DefaultConfig(1)
	placement := nvme.ConfigB() // 2 drives on CPU #1, RAID0
	cfg.Drives = placement.Drives
	cluster := topology.New(cfg)
	vols := placement.Build(cluster)

	vols[0].IO(1, 10e9, true, func() {
		fmt.Printf("10 GB write finished at %v\n", cluster.Eng.Now())
	})
	cluster.Eng.Run()
	// 4 GB of cache burst at 2×16 GB/s, 6 GB sustained at 2×4.5 GB/s.
	// Output:
	// 10 GB write finished at 791.667ms
}
