// Package fabric implements the fluid-flow model of the cluster's
// interconnects. Every physical link (DRAM channel group, xGMI, PCIe, NVLink,
// RoCE) and every shared internal resource (the AMD I/O-die crossbar, NVMe
// media engines, CPU optimizer throughput) is a Link with a capacity in
// bytes/second. Data transfers are Flows over a path of links; the network
// continuously assigns each flow its max-min fair share of every link it
// crosses and advances flows in virtual time on the sim engine.
//
// This is the standard fluid approximation used by network simulators: exact
// packet behaviour is abstracted away, but sharing, contention and bottleneck
// structure — the quantities the paper characterizes — are preserved.
package fabric

import (
	"fmt"

	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
)

// Class identifies the interconnect type a link belongs to; aggregation in
// the paper's Table IV is per class per node.
type Class int

// Interconnect classes, mirroring the paper's Table III rows plus the
// modelled internal resources.
const (
	DRAM Class = iota
	XGMI
	PCIeGPU
	PCIeNVME
	PCIeNIC
	NVLink
	RoCE
	IODXbar // AMD I/O-die crossbar budget for SerDes-to-SerDes traffic
	NVMeDev // NVMe device media engine (DRAM cache or NAND rate)
	CPUCore // CPU optimizer-compute throughput, expressed as bytes/s
	GPUCore // GPU compute throughput, expressed as FLOP/s
	Virtual // per-flow caps and other bookkeeping resources
	Uplink  // datacenter fabric trunk: fat-tree pod uplinks, dragonfly globals
)

var classNames = map[Class]string{
	DRAM: "DRAM", XGMI: "xGMI", PCIeGPU: "PCIe-GPU", PCIeNVME: "PCIe-NVME",
	PCIeNIC: "PCIe-NIC", NVLink: "NVLink", RoCE: "RoCE", IODXbar: "IOD-Xbar",
	NVMeDev: "NVMe-Dev", CPUCore: "CPU-Core", GPUCore: "GPU-Core", Virtual: "Virtual",
	Uplink: "Uplink",
}

// String returns the class name used in reports.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MeasuredClasses lists the classes that appear in the paper's bandwidth
// tables, in the paper's column order.
func MeasuredClasses() []Class {
	return []Class{DRAM, XGMI, PCIeGPU, PCIeNVME, PCIeNIC, NVLink, RoCE}
}

// Link is a shared resource with a capacity in bytes per second. The paper
// reports aggregate bidirectional bandwidth, so capacities here are
// bidirectional aggregates and a flow consumes its byte volume once.
type Link struct {
	Name  string
	Class Class
	Node  int // compute node the link belongs to; -1 for inter-node fabric

	// CountWeight multiplies bytes credited to the telemetry counter. GPU
	// NVLink telemetry is per-GPU (nvidia-smi counts each byte at both the
	// sending and receiving GPU), so NVLink pair links use weight 2.
	CountWeight float64

	capacity float64
	counter  telemetry.Counter

	// active lists the flows currently crossing the link (maintained by
	// Network with swap-removal; a flow whose path crosses the link twice
	// appears twice). It is the adjacency the network's connected-component
	// walk traverses, and its length is the flow count progressive filling
	// used to recompute per call.
	active []*Flow
	// mark stamps the link as visited during a component walk; scap and
	// sunfrozen are the link's progressive-filling scratch state. All three
	// are owned by the Network between reshare calls, living here so the
	// hot path needs no map from link to state.
	mark      int64
	scap      float64
	sunfrozen int
}

// NewLink creates a link. Capacity is in bytes/second; window is the
// telemetry sampling window (0 = default).
func NewLink(name string, class Class, node int, capacity float64, window sim.Time) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("fabric: link %s with non-positive capacity %f", name, capacity))
	}
	return &Link{
		Name:        name,
		Class:       class,
		Node:        node,
		CountWeight: 1,
		capacity:    capacity,
		counter:     *telemetry.NewCounter(name, window),
	}
}

// Capacity returns the current capacity in bytes/second.
func (l *Link) Capacity() float64 { return l.capacity }

// Counter exposes the telemetry counter for reporting.
func (l *Link) Counter() *telemetry.Counter { return &l.counter }

// ActiveFlows returns the number of flows currently crossing the link.
func (l *Link) ActiveFlows() int { return len(l.active) }

// removeFlowAt swap-removes the flow at position i of the link's active list,
// fixing up the displaced flow's recorded position.
func (l *Link) removeFlowAt(i int) {
	last := len(l.active) - 1
	if i != last {
		moved := l.active[last]
		l.active[i] = moved
		for k, pl := range moved.Path {
			if pl == l && moved.pos[k] == int32(last) {
				moved.pos[k] = int32(i)
				break
			}
		}
	}
	l.active[last] = nil
	l.active = l.active[:last]
}

func (l *Link) String() string {
	return fmt.Sprintf("%s(%s, %.1f GB/s)", l.Name, l.Class, l.capacity/1e9)
}
