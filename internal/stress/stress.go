// Package stress reproduces the paper's Section III-C inter-node latency and
// bandwidth stress tests (OFED perftest equivalents): RoCE latency versus
// message size for channel-semantic SEND and memory-semantic RDMA READ/WRITE
// (Fig 3), and the four-instance CPU-RoCE / GPU-RoCE bandwidth stress
// kernels whose same-socket versus cross-socket results motivated the
// paper's I/O-die SerDes contention hypothesis (Fig 4).
package stress

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
	"llmbw/internal/topology"
)

// Verb is an RDMA operation of the latency test.
type Verb int

// RoCE verbs measured in Fig 3.
const (
	Send Verb = iota
	Read
	Write
)

func (v Verb) String() string {
	switch v {
	case Send:
		return "SEND"
	case Read:
		return "RDMA READ"
	case Write:
		return "RDMA WRITE"
	}
	return fmt.Sprintf("Verb(%d)", int(v))
}

// Per-direction serialization bandwidth of the latency test's single stream
// (half of the bidirectional aggregates, degraded by the crossbar on
// cross-socket paths).
const (
	sameSocketStreamBW  = 23e9 // ≈ 46 GB/s bidirectional attained / 2
	crossSocketStreamBW = 12e9 // ≈ crossbar-limited attained / 2
)

// LatencyPoint is one sample of the Fig 3 sweep.
type LatencyPoint struct {
	Verb        Verb
	CrossSocket bool
	MsgBytes    float64
	Latency     sim.Time
}

// Latency computes the one-sided RoCE latency for a message of the given
// size. The path model composes the per-hop latencies of the topology
// package: DRAM→PCIe→RoCE→PCIe→DRAM, plus the I/O-die crossbar penalty on
// each cross-socket end, plus serialization time. READ is a round trip;
// WRITE skips the receiver-side completion.
func Latency(c *topology.Cluster, v Verb, cross bool, msgBytes float64) sim.Time {
	socket := 0
	nic := 0
	if cross {
		nic = 1
	}
	local := c.CPUToNIC(0, socket, topology.NIC{Node: 0, Socket: nic})
	remote := c.CPUToNIC(1, socket, topology.NIC{Node: 1, Socket: nic})
	path := local.Latency + topology.LatRoCE + remote.Latency

	bw := sameSocketStreamBW
	if cross {
		bw = crossSocketStreamBW
	}
	ser := sim.Seconds(msgBytes / bw)

	switch v {
	case Send:
		return path + ser
	case Write:
		// Memory semantic: no receive-side CPU involvement.
		return path - topology.LatDRAM + ser
	case Read:
		// The read request makes an extra network trip before the data
		// flows back; the crossbar penalty is paid once by the data path.
		return path + topology.LatRoCE + ser
	default:
		panic(fmt.Sprintf("stress: unknown verb %d", int(v)))
	}
}

// DefaultMessageSizes is the Fig 3 sweep (2 B to 8 MB, powers of two).
func DefaultMessageSizes() []float64 {
	var out []float64
	for b := 2.0; b <= 8<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// LatencySweep runs the full Fig 3 grid.
func LatencySweep(sizes []float64) []LatencyPoint {
	c := topology.New(topology.DefaultConfig(2))
	var out []LatencyPoint
	for _, v := range []Verb{Send, Read, Write} {
		for _, cross := range []bool{false, true} {
			for _, s := range sizes {
				out = append(out, LatencyPoint{
					Verb:        v,
					CrossSocket: cross,
					MsgBytes:    s,
					Latency:     Latency(c, v, cross, s),
				})
			}
		}
	}
	return out
}

// BandwidthResult is one Fig 4 scenario: attained statistics per
// interconnect class (node-0 aggregates) against the theoretical aggregate.
type BandwidthResult struct {
	Scenario    string
	Stats       map[fabric.Class]telemetry.Stats
	Theoretical map[fabric.Class]float64
	Duration    sim.Time
}

// kernel keeps a bidirectional transfer saturated between a local route and
// the remote side for the duration of the test, in chunked flows like the
// perftest kernels' message loop: one stream per direction, each starting
// at time zero in tx, rx order.
func kernel(c *topology.Cluster, name string, tx, rx topology.Route, deadline sim.Time) {
	for _, s := range []*stream{
		{c: c, name: name + "/tx", route: tx, deadline: deadline},
		{c: c, name: name + "/rx", route: rx, deadline: deadline},
	} {
		s.resume = s.send
		c.Eng.Schedule(0, s.resume)
	}
}

// stream is one direction of a kernel: a callback machine that sends the
// next chunk whenever the previous one lands, until the deadline.
type stream struct {
	c        *topology.Cluster
	name     string
	route    topology.Route
	deadline sim.Time
	resume   func() // send, bound once
}

// chunk is the message size of the kernels' send loop.
const chunk = 1e9

func (s *stream) send() {
	if s.c.Eng.Now() < s.deadline {
		s.c.Net.StartFlow(s.route.Flow(s.name, chunk), s.resume)
	}
}

// roceRoute builds the full host-memory RDMA path from node 0's socket to
// node 1 via the chosen NICs.
func roceRoute(c *topology.Cluster, socket, nic int) topology.Route {
	local := c.CPUToNIC(0, socket, topology.NIC{Node: 0, Socket: nic})
	inter := c.InterNode(topology.NIC{Node: 0, Socket: nic}, topology.NIC{Node: 1, Socket: nic})
	remote := c.CPUToNIC(1, socket, topology.NIC{Node: 1, Socket: nic})
	return topology.Concat(local, inter, remote)
}

// gpuRoceRoute builds the GPUDirect path from a node-0 GPU to its peer on
// node 1 via the chosen NIC sockets.
func gpuRoceRoute(c *topology.Cluster, gpu, nic int) topology.Route {
	a := topology.GPU{Node: 0, Index: gpu}
	b := topology.GPU{Node: 1, Index: gpu}
	return c.GPUToRemoteGPUVia(a, b, nic, nic)
}

func collect(c *topology.Cluster, scenario string, dur sim.Time) BandwidthResult {
	c.Eng.RunUntil(dur)
	c.Net.Quiesce()
	res := BandwidthResult{
		Scenario:    scenario,
		Stats:       make(map[fabric.Class]telemetry.Stats),
		Theoretical: make(map[fabric.Class]float64),
		Duration:    dur,
	}
	for _, class := range fabric.MeasuredClasses() {
		res.Stats[class] = c.ClassStats(class, 0, 0, dur)
		res.Theoretical[class] = c.TheoreticalClassBW(class)
	}
	return res
}

func stressCluster() *topology.Cluster {
	cfg := topology.DefaultConfig(2)
	cfg.Window = 100 * sim.Millisecond
	return topology.New(cfg)
}

// CPURoCEStress runs the Sec III-C2 test: four kernels, two per CPU socket,
// each saturating bidirectional RDMA to the peer node. In the same-socket
// scenario each kernel uses its socket's own NIC (DRAM↔SerDes, no crossbar);
// cross-socket kernels use the neighbour's NIC and pay xGMI plus the
// crossbar at the NIC socket.
func CPURoCEStress(cross bool, dur sim.Time) BandwidthResult {
	return CPURoCEStressOn(stressCluster(), cross, dur)
}

// CPURoCEStressOn runs the CPU-RoCE stress on a caller-provided cluster
// (for ablations with modified topologies).
func CPURoCEStressOn(c *topology.Cluster, cross bool, dur sim.Time) BandwidthResult {
	for socket := 0; socket < topology.SocketsPerNode; socket++ {
		nic := socket
		if cross {
			nic = 1 - socket
		}
		r := roceRoute(c, socket, nic)
		for k := 0; k < 2; k++ {
			kernel(c, fmt.Sprintf("cpu-roce/s%d.%d", socket, k), r, r, dur)
		}
	}
	name := "CPU-RoCE same-socket"
	if cross {
		name = "CPU-RoCE cross-socket"
	}
	return collect(c, name, dur)
}

// GPURoCEStress runs the Sec III-C3 test: four kernels, one per GPU, using
// GPUDirect RDMA. Same-socket kernels use the NIC on the GPU's socket —
// which still crosses the I/O-die crossbar (PCIe↔PCIe), the result that
// surprised the paper; cross-socket kernels pay two crossbars and xGMI.
func GPURoCEStress(cross bool, dur sim.Time) BandwidthResult {
	return GPURoCEStressOn(stressCluster(), cross, dur)
}

// GPURoCEStressOn runs the GPU-RoCE stress on a caller-provided cluster
// (for ablations with modified topologies).
func GPURoCEStressOn(c *topology.Cluster, cross bool, dur sim.Time) BandwidthResult {
	for gpu := 0; gpu < topology.GPUsPerNode; gpu++ {
		socket := gpu / 2
		nic := socket
		if cross {
			nic = 1 - socket
		}
		r := gpuRoceRoute(c, gpu, nic)
		kernel(c, fmt.Sprintf("gpu-roce/g%d", gpu), r, r, dur)
	}
	name := "GPU-RoCE same-socket"
	if cross {
		name = "GPU-RoCE cross-socket"
	}
	return collect(c, name, dur)
}

// AttainedFraction returns attained average bandwidth of a class as a
// fraction of its theoretical aggregate.
func (b BandwidthResult) AttainedFraction(class fabric.Class) float64 {
	th := b.Theoretical[class]
	if th == 0 {
		return 0
	}
	return b.Stats[class].Avg / th
}
