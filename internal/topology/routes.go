package topology

import (
	"fmt"
	"sort"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
)

// Route is an ordered set of links a transfer crosses, plus its one-way
// latency. Order does not matter to the fluid model but helps debugging.
type Route struct {
	Links   []*fabric.Link
	Latency sim.Time
}

// Flow builds a fabric.Flow of the given size over the route.
func (r Route) Flow(name string, bytes float64) *fabric.Flow {
	return &fabric.Flow{Name: name, Path: r.Links, Bytes: bytes}
}

func route(lat sim.Time, links ...*fabric.Link) Route {
	return Route{Links: links, Latency: lat}
}

// GPUToGPU routes traffic between two GPUs on the same node over their
// NVLink pair. NCCL never bounces same-node GPU traffic through PCIe on this
// platform because all GPUs are fully connected.
func (c *Cluster) GPUToGPU(a, b GPU) Route {
	return route(LatNCCLStep, c.NVLinkPair(a, b))
}

// GPUToNIC routes GPUDirect-RDMA traffic from a GPU to a NIC on the same
// node. The path always crosses the host PCIe of both devices; it charges
// the IOD crossbar of every socket where it enters and leaves through
// SerDes (PCIe→PCIe on the same socket, PCIe→xGMI and xGMI→PCIe when
// crossing sockets) — the paper's Section III-C4 model.
func (c *Cluster) GPUToNIC(g GPU, n NIC) Route {
	if g.Node != n.Node {
		panic("topology: GPUToNIC across nodes")
	}
	gs := g.Socket()
	if gs == n.Socket {
		return route(LatPCIe+LatXbar+LatPCIe,
			c.PCIeGPULink(g), c.XbarLink(g.Node, gs), c.PCIeNICLink(n))
	}
	return route(LatPCIe+2*LatXbar+LatXGMI+LatPCIe,
		c.PCIeGPULink(g), c.XbarLink(g.Node, gs), c.XGMILink(g.Node),
		c.XbarLink(n.Node, n.Socket), c.PCIeNICLink(n))
}

// CPUToNIC routes host-memory RDMA traffic from a socket's DRAM to a NIC.
// Same-socket traffic is DRAM→SerDes and dodges the crossbar penalty; the
// cross-socket path pays the crossbar at the NIC's socket (xGMI→PCIe).
func (c *Cluster) CPUToNIC(node, socket int, n NIC) Route {
	if node != n.Node {
		panic("topology: CPUToNIC across nodes")
	}
	if socket == n.Socket {
		return route(LatDRAM+LatPCIe, c.DRAMLink(node, socket), c.PCIeNICLink(n))
	}
	return route(LatDRAM+LatXGMI+LatXbar+LatPCIe,
		c.DRAMLink(node, socket), c.XGMILink(node),
		c.XbarLink(node, n.Socket), c.PCIeNICLink(n))
}

// GPUToCPU routes PCIe traffic between a GPU and a socket's DRAM (offload
// transfers). Cross-socket paths pay the GPU-side crossbar (PCIe→xGMI).
func (c *Cluster) GPUToCPU(g GPU, socket int) Route {
	gs := g.Socket()
	if gs == socket {
		return route(LatPCIe+LatDRAM, c.PCIeGPULink(g), c.DRAMLink(g.Node, socket))
	}
	return route(LatPCIe+LatXbar+LatXGMI+LatDRAM,
		c.PCIeGPULink(g), c.XbarLink(g.Node, gs), c.XGMILink(g.Node),
		c.DRAMLink(g.Node, socket))
}

// CPUToNVMe routes traffic between a socket's DRAM and a drive.
func (c *Cluster) CPUToNVMe(node, socket int, d DriveSpec) Route {
	if node != d.Node {
		panic("topology: CPUToNVMe across nodes")
	}
	if socket == d.Socket {
		return route(LatDRAM+LatPCIe+LatNVMe, c.DRAMLink(node, socket), c.NVMeLink(d))
	}
	return route(LatDRAM+LatXGMI+LatXbar+LatPCIe+LatNVMe,
		c.DRAMLink(node, socket), c.XGMILink(node),
		c.XbarLink(node, d.Socket), c.NVMeLink(d))
}

// InterNode routes RoCE traffic between two NICs on different nodes through
// the (non-blocking) SN3700 switch: the flow consumes both NICs' Ethernet
// bandwidth.
func (c *Cluster) InterNode(a, b NIC) Route {
	if a.Node == b.Node {
		panic("topology: InterNode on same node")
	}
	return route(LatRoCE, c.RoCELink(a), c.RoCELink(b))
}

// GPUToRemoteGPU composes the full GPUDirect path between GPUs on different
// nodes: local PCIe/crossbar to the NIC serving the GPU's socket, RoCE to the
// peer, and the mirror path on the far side.
func (c *Cluster) GPUToRemoteGPU(a, b GPU) Route {
	return c.GPUToRemoteGPUVia(a, b, a.Socket(), b.Socket())
}

// GPUToRemoteGPUVia is GPUToRemoteGPU with explicit NIC selection on each
// side. NCCL assigns communication channels to NICs round-robin without
// regard to GPU affinity, so a channel can bind a GPU to the neighbour
// socket's NIC — the source of the dual-node xGMI traffic the paper reports
// in Section IV-E2.
func (c *Cluster) GPUToRemoteGPUVia(a, b GPU, nicA, nicB int) Route {
	if a.Node == b.Node {
		panic("topology: GPUs on same node; use GPUToGPU")
	}
	na := NIC{Node: a.Node, Socket: nicA}
	nb := NIC{Node: b.Node, Socket: nicB}
	la := c.GPUToNIC(a, na)
	lb := c.GPUToNIC(b, nb)
	inter := c.InterNode(na, nb)
	links := append(append(append([]*fabric.Link{}, la.Links...), inter.Links...), lb.Links...)
	return Route{Links: links, Latency: la.Latency + inter.Latency + lb.Latency}
}

// Concat joins routes into one (for composite transfers such as NVMe→DRAM→GPU).
func Concat(rs ...Route) Route {
	var out Route
	seen := make(map[*fabric.Link]bool)
	for _, r := range rs {
		for _, l := range r.Links {
			if !seen[l] {
				seen[l] = true
				out.Links = append(out.Links, l)
			}
		}
		out.Latency += r.Latency
	}
	return out
}

// LinksOfClass returns all links of a class on a node, name-sorted for
// deterministic reporting. Node -1 matches every node.
func (c *Cluster) LinksOfClass(class fabric.Class, node int) []*fabric.Link {
	var out []*fabric.Link
	for _, l := range c.all {
		if l.Class == class && (node < 0 || l.Node == node) {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClassSeries sums the bandwidth series of every link of a class on a node
// over [start, end), i.e. the aggregate per-node utilization the paper's
// monitors report after the warm-up interval.
func (c *Cluster) ClassSeries(class fabric.Class, node int, start, end sim.Time) telemetry.Series {
	var sum telemetry.Series
	for _, l := range c.LinksOfClass(class, node) {
		sum = sum.Sum(l.Counter().SeriesRange(start, end))
	}
	return sum
}

// ClassStats computes avg/p90/peak of the aggregate class series.
func (c *Cluster) ClassStats(class fabric.Class, node int, start, end sim.Time) telemetry.Stats {
	return c.ClassSeries(class, node, start, end).Stats()
}

// TheoreticalClassBW returns the paper's theoretical aggregate bidirectional
// bandwidth for a class on one node (Table III "links per node" × per-link).
func (c *Cluster) TheoreticalClassBW(class fabric.Class) float64 {
	switch class {
	case fabric.DRAM:
		return DRAMChannelBW * DRAMChannels * SocketsPerNode
	case fabric.XGMI:
		return XGMILinkBW * XGMILinks
	case fabric.PCIeGPU:
		return PCIeGPULinkBW * GPUsPerNode
	case fabric.PCIeNIC:
		return PCIeNICLinkBW * NICsPerNode
	case fabric.PCIeNVME:
		return PCIeNVMELinkBW * NVMeSlotsPerCPU * SocketsPerNode
	case fabric.NVLink:
		// 12 links × 50 GB/s × 4 GPUs, per-GPU counting convention.
		return NVLinkBW * 12 * GPUsPerNode
	case fabric.RoCE:
		return RoCELinkBW * NICsPerNode
	default:
		panic(fmt.Sprintf("topology: no theoretical bandwidth for %v", class))
	}
}

// Links returns every link in the cluster (for diagnostics).
func (c *Cluster) Links() []*fabric.Link { return c.all }
