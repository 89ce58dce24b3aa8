// Package topology builds the simulated hardware of the paper's testbed: two
// Dell PowerEdge XE8545 compute nodes (Fig 2), each with two AMD EPYC 7763
// sockets, eight DDR4-3200 channels per socket, three xGMI inter-socket
// links, four NVIDIA A100-SXM4-40GB GPUs fully connected by NVLink 3.0,
// two ConnectX-6 NICs (one per socket) joined through an SN3700 switch via
// 200 GbE RoCE, and PCIe 4.0 NVMe slots.
//
// All capacities come from the paper's Table III (aggregate bidirectional
// bandwidth per link). The package also encodes the paper's Section III-C4
// hypothesis as a first-class model: each socket's I/O die (IOD) has a
// crossbar budget that throttles traffic entering AND leaving the socket
// through I/O SerDes (PCIe↔PCIe, PCIe↔xGMI, xGMI↔xGMI), while traffic
// between the DRAM controllers and a single SerDes is unthrottled.
package topology

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

// Table III capacities in bytes/second (decimal GB), aggregate bidirectional.
const (
	GB = 1e9

	DRAMChannelBW   = 25.6 * GB // per channel, 8 per socket
	DRAMChannels    = 8
	XGMILinkBW      = 72.0 * GB // per link, 3 between the sockets
	XGMILinks       = 3
	PCIeGPULinkBW   = 64.0 * GB // PCIe 4.0 x16, one per GPU
	PCIeNICLinkBW   = 64.0 * GB // PCIe 4.0 x16, one per NIC
	PCIeNVMELinkBW  = 16.0 * GB // PCIe 4.0 x4, one per drive slot
	NVLinkBW        = 50.0 * GB // per NVLink, 4 links between each GPU pair
	NVLinksPerPair  = 4
	RoCELinkBW      = 50.0 * GB // 200 Gb/s each direction per NIC
	GPUsPerNode     = 4
	SocketsPerNode  = 2
	NICsPerNode     = 2
	NVMeSlotsPerCPU = 4 // x16 link #0 bifurcated x4/x4/x4/x4
)

// DefaultXbarBW is the calibrated I/O-die crossbar budget per socket for
// SerDes-to-SerDes traffic. The paper measures ~47-52% of the 50 GB/s RoCE
// theoretical for paths crossing the crossbar (Sec III-C2/C3), i.e. roughly
// 24-26 GB/s sustained per socket; we charge each crossbar traversal against
// this budget.
const DefaultXbarBW = 26.0 * GB

// Latencies per hop used by the latency tests (Fig 3).
const (
	LatDRAM     = 100 * sim.Nanosecond
	LatXGMI     = 400 * sim.Nanosecond
	LatPCIe     = 300 * sim.Nanosecond
	LatRoCE     = 3 * sim.Microsecond // NIC + switch + NIC, one way
	LatXbar     = 15 * sim.Microsecond
	LatNVMe     = 10 * sim.Microsecond
	LatKern     = 2 * sim.Microsecond // kernel-launch style fixed overhead
	LatNCCLStep = 4 * sim.Microsecond
)

// DriveSpec places an NVMe drive on a socket of a node. Slot only
// disambiguates names.
type DriveSpec struct {
	Node, Socket, Slot int
}

// Config selects the cluster shape. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	Nodes  int
	XbarBW float64
	Window sim.Time // telemetry sampling window; 0 = default
	Drives []DriveSpec
	// What-if overrides for sensitivity studies; zero selects the paper's
	// Table III value.
	RoCEBW       float64 // per-NIC bidirectional aggregate
	NVLinkPairBW float64 // per-GPU-pair aggregate (4 links)
	// StreamEff overrides the fraction of a NIC's bidirectional aggregate
	// one collective ring direction attains across nodes (0 = the
	// calibrated mainstream-platform value in internal/collective).
	StreamEff float64
}

// PurposeBuiltConfig approximates a purpose-built AI node of the same GPU
// count (DGX-A100 / Selene class, the clusters the paper's introduction
// contrasts with mainstream ones): NVSwitch-class full-bisection GPU fabric,
// GPU-adjacent InfiniBand rails that bypass the CPU I/O die (no crossbar
// penalty, near-wire collective efficiency), and 200 GB/s of inter-node
// bandwidth per NIC.
func PurposeBuiltConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.XbarBW = 1e12        // PCIe-switch fabric: IOD crossbar never binds
	cfg.RoCEBW = 200e9       // HDR InfiniBand rails
	cfg.NVLinkPairBW = 600e9 // NVSwitch: any pair at full per-GPU bandwidth
	cfg.StreamEff = 0.45     // ~90% wire efficiency per direction
	return cfg
}

// DefaultConfig is the paper's cluster: two scratch NVMe drives on socket 1
// (CPU #1), the OS drive excluded from measurement.
func DefaultConfig(nodes int) Config {
	cfg := Config{Nodes: nodes, XbarBW: DefaultXbarBW}
	for n := 0; n < nodes; n++ {
		cfg.Drives = append(cfg.Drives,
			DriveSpec{Node: n, Socket: 1, Slot: 0},
			DriveSpec{Node: n, Socket: 1, Slot: 1},
		)
	}
	return cfg
}

// GPU identifies a GPU by node and index (0-3). GPUs 0,1 hang off socket 0,
// GPUs 2,3 off socket 1, matching Fig 2-b.
type GPU struct{ Node, Index int }

// Socket returns the socket the GPU's PCIe link lands on.
func (g GPU) Socket() int { return g.Index / 2 }

func (g GPU) String() string { return fmt.Sprintf("n%dg%d", g.Node, g.Index) }

// NIC identifies a NIC by node and socket (one NIC per socket).
type NIC struct{ Node, Socket int }

func (n NIC) String() string { return fmt.Sprintf("n%dnic%d", n.Node, n.Socket) }

// Cluster is the wired-up link graph plus the simulation engine and flow
// network everything runs on.
type Cluster struct {
	Cfg Config
	Eng *sim.Engine
	Net *fabric.Network

	dram    [][]*fabric.Link           // [node][socket], 8 channels aggregated
	xgmi    []*fabric.Link             // [node], 3 links aggregated
	xbar    [][]*fabric.Link           // [node][socket]
	pcieGPU [][]*fabric.Link           // [node][gpu]
	pcieNIC [][]*fabric.Link           // [node][socket]
	nvPair  map[[2]int][]*fabric.Link  // [node] indexed inside; see nvKey
	nvlinks [][]*fabric.Link           // [node] -> 6 pair links
	roce    [][]*fabric.Link           // [node][socket]
	nvmePCI map[DriveSpec]*fabric.Link // per drive slot
	all     []*fabric.Link
}

// New builds the cluster on a fresh serial simulation engine. The testbed is
// one fluid fair-share domain — a single cross-node flow couples both nodes'
// rate allocations instantaneously (see InterNode) — so no conservative
// partition can split it, and it always runs on one engine.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("topology: need at least one node")
	}
	if cfg.XbarBW <= 0 {
		cfg.XbarBW = DefaultXbarBW
	}
	eng := sim.New()
	c := &Cluster{
		Cfg:     cfg,
		Eng:     eng,
		Net:     fabric.NewNetwork(eng),
		nvPair:  make(map[[2]int][]*fabric.Link),
		nvmePCI: make(map[DriveSpec]*fabric.Link),
	}
	w := cfg.Window
	mk := func(name string, class fabric.Class, node int, bw float64) *fabric.Link {
		l := fabric.NewLink(name, class, node, bw, w)
		c.all = append(c.all, l)
		return l
	}
	for n := 0; n < cfg.Nodes; n++ {
		var dramRow, xbarRow, gpuRow, nicRow, roceRow []*fabric.Link
		for s := 0; s < SocketsPerNode; s++ {
			dramRow = append(dramRow, mk(fmt.Sprintf("n%d/dram%d", n, s), fabric.DRAM, n, DRAMChannelBW*DRAMChannels))
			xbarRow = append(xbarRow, mk(fmt.Sprintf("n%d/xbar%d", n, s), fabric.IODXbar, n, cfg.XbarBW))
			nicRow = append(nicRow, mk(fmt.Sprintf("n%d/pcie-nic%d", n, s), fabric.PCIeNIC, n, PCIeNICLinkBW))
			roceBW := RoCELinkBW
			if cfg.RoCEBW > 0 {
				roceBW = cfg.RoCEBW
			}
			roceRow = append(roceRow, mk(fmt.Sprintf("n%d/roce%d", n, s), fabric.RoCE, n, roceBW))
		}
		for g := 0; g < GPUsPerNode; g++ {
			gpuRow = append(gpuRow, mk(fmt.Sprintf("n%d/pcie-gpu%d", n, g), fabric.PCIeGPU, n, PCIeGPULinkBW))
		}
		c.dram = append(c.dram, dramRow)
		c.xbar = append(c.xbar, xbarRow)
		c.pcieGPU = append(c.pcieGPU, gpuRow)
		c.pcieNIC = append(c.pcieNIC, nicRow)
		c.roce = append(c.roce, roceRow)
		c.xgmi = append(c.xgmi, mk(fmt.Sprintf("n%d/xgmi", n), fabric.XGMI, n, XGMILinkBW*XGMILinks))

		var pairs []*fabric.Link
		for a := 0; a < GPUsPerNode; a++ {
			for b := a + 1; b < GPUsPerNode; b++ {
				pairBW := NVLinkBW * NVLinksPerPair
				if cfg.NVLinkPairBW > 0 {
					pairBW = cfg.NVLinkPairBW
				}
				l := mk(fmt.Sprintf("n%d/nvlink%d-%d", n, a, b), fabric.NVLink, n, pairBW)
				// nvidia-smi counts every byte at both endpoint GPUs,
				// and the paper sums per-GPU counters per node.
				l.CountWeight = 2
				c.nvPair[[2]int{n*16 + a, n*16 + b}] = []*fabric.Link{l}
				pairs = append(pairs, l)
			}
		}
		c.nvlinks = append(c.nvlinks, pairs)
	}
	for _, d := range cfg.Drives {
		if d.Node >= cfg.Nodes || d.Socket >= SocketsPerNode {
			panic(fmt.Sprintf("topology: drive %v outside cluster", d))
		}
		c.nvmePCI[d] = mk(fmt.Sprintf("n%d/pcie-nvme%d.%d", d.Node, d.Socket, d.Slot),
			fabric.PCIeNVME, d.Node, PCIeNVMELinkBW)
	}
	return c
}

func (c *Cluster) checkGPU(g GPU) {
	if g.Node < 0 || g.Node >= c.Cfg.Nodes || g.Index < 0 || g.Index >= GPUsPerNode {
		panic(fmt.Sprintf("topology: no such GPU %v", g))
	}
}

// DRAMLink returns the aggregated DRAM-channel link of a socket.
func (c *Cluster) DRAMLink(node, socket int) *fabric.Link { return c.dram[node][socket] }

// XGMILink returns the aggregated inter-socket link of a node.
func (c *Cluster) XGMILink(node int) *fabric.Link { return c.xgmi[node] }

// XbarLink returns the IOD crossbar budget of a socket.
func (c *Cluster) XbarLink(node, socket int) *fabric.Link { return c.xbar[node][socket] }

// PCIeGPULink returns a GPU's host PCIe link.
func (c *Cluster) PCIeGPULink(g GPU) *fabric.Link { c.checkGPU(g); return c.pcieGPU[g.Node][g.Index] }

// PCIeNICLink returns a NIC's host PCIe link.
func (c *Cluster) PCIeNICLink(n NIC) *fabric.Link { return c.pcieNIC[n.Node][n.Socket] }

// RoCELink returns a NIC's Ethernet link.
func (c *Cluster) RoCELink(n NIC) *fabric.Link { return c.roce[n.Node][n.Socket] }

// NVMeLink returns the PCIe link of a drive slot.
func (c *Cluster) NVMeLink(d DriveSpec) *fabric.Link {
	l, ok := c.nvmePCI[d]
	if !ok {
		panic(fmt.Sprintf("topology: no drive at %v", d))
	}
	return l
}

// NVLinkPair returns the aggregated NVLink between two GPUs on one node.
func (c *Cluster) NVLinkPair(a, b GPU) *fabric.Link {
	c.checkGPU(a)
	c.checkGPU(b)
	if a.Node != b.Node {
		panic("topology: NVLink does not cross nodes")
	}
	if a.Index == b.Index {
		panic("topology: NVLink to self")
	}
	ka, kb := a.Node*16+a.Index, b.Node*16+b.Index
	if ka > kb {
		ka, kb = kb, ka
	}
	return c.nvPair[[2]int{ka, kb}][0]
}
