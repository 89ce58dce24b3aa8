// Package train implements the distributed training strategies the paper
// measures — PyTorch DDP, Megatron-LM model parallelism, and DeepSpeed
// ZeRO-1/2/3 with ZeRO-Offload (CPU) and ZeRO-Infinity (NVMe) — as iteration
// schedules executed on the simulated cluster. Each strategy drives the same
// substrate: GPU compute spans from internal/compute, NCCL-style collectives
// from internal/collective, offload copies over the PCIe/xGMI fabric, host
// optimizer steps, and NVMe staging through internal/nvme.
//
// A run produces the paper's measured quantities: iteration time and
// attained TFLOP/s (DeepSpeed FLOPS-profiler convention: executed FLOPs over
// wall time), per-interconnect bandwidth statistics (Table IV/VI), memory
// usage (Fig 11/13), and per-GPU timelines (Fig 5).
package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/nvme"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// MaxNodes bounds cluster size. The paper's testbed has two nodes; the
// simulator generalizes the same topology (one switch, two NICs per node)
// for scale-out studies.
const MaxNodes = 16

// Strategy selects the training framework.
type Strategy int

// Frameworks under test.
const (
	DDP Strategy = iota
	Megatron
	ZeRO1
	ZeRO2
	ZeRO3
)

func (s Strategy) String() string {
	switch s {
	case DDP:
		return "DDP"
	case Megatron:
		return "Megatron-LM"
	case ZeRO1:
		return "ZeRO-1"
	case ZeRO2:
		return "ZeRO-2"
	case ZeRO3:
		return "ZeRO-3"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ZeROStage returns the ZeRO stage (1-3) or 0 for non-ZeRO strategies.
func (s Strategy) ZeROStage() int {
	switch s {
	case ZeRO1:
		return 1
	case ZeRO2:
		return 2
	case ZeRO3:
		return 3
	}
	return 0
}

// Config describes one training experiment.
type Config struct {
	Strategy Strategy
	Offload  memory.Offload
	Nodes    int
	Model    model.GPT
	// TensorParallel × PipelineParallel configures Megatron-LM hybrid
	// model parallelism. Zero values select pure tensor parallelism of
	// degree = world size (the behaviour matching the paper's NVLink
	// traffic). When set, their product must equal the world size.
	TensorParallel   int
	PipelineParallel int
	// BatchPerGPU defaults to the paper's 16.
	BatchPerGPU int
	// Placement is the NVMe layout for ZeRO-Infinity runs (defaults to the
	// paper's Config B: two drives on CPU #1 in RAID0).
	Placement *nvme.Placement
	// Iterations measured after Warmup (defaults 5 and 2, mirroring the
	// paper's "collect from the fifth iteration").
	Iterations int
	Warmup     int
	// Trace enables per-GPU timeline capture of the last iteration.
	Trace bool
	// Window overrides the telemetry sampling window.
	Window sim.Time
	// PurposeBuilt swaps the mainstream XE8545 platform for a purpose-built
	// AI node of the same GPU count (NVSwitch fabric, GPU-adjacent
	// InfiniBand rails) — the cluster class the paper's introduction says
	// is out of reach for most researchers.
	PurposeBuilt bool
	// What-if overrides for sensitivity studies (0 = paper defaults):
	// RoCEBW scales the per-NIC Ethernet bandwidth, XbarBW the I/O-die
	// crossbar budget per socket.
	RoCEBW float64
	XbarBW float64
	// FaultInjection, when set, runs after the cluster is built and before
	// the simulation starts. Use it to schedule link degradations or other
	// mid-run events (e.g. cluster.Eng.Schedule + cluster.Net.SetCapacity)
	// for resilience studies.
	FaultInjection func(c *topology.Cluster)
	// Rewrite applies a schedule-level ablation (see schedule.Rewrite) to
	// the compiled iteration program.
	Rewrite schedule.Rewrite
	// Shards requests a simulation shard count; it is clamped to the
	// partitions the fabric has. The testbed is one fluid fair-share domain
	// — a single cross-node collective flow couples every node's rate
	// allocation with zero lookahead — so it always runs on one plain engine
	// and the knob changes nothing there. On a generated datacenter fabric
	// (Topo below) with a hierarchical Algo, the cross-node legs are
	// store-and-forward handoffs, the cluster shards along its pod seams (up
	// to the pod count), and the run parallelizes; a flat Algo is again one
	// domain and runs on one shard. Output never depends on the value.
	Shards int
	// Topo selects the fabric: empty or topology.PaperTopo runs the paper's
	// two-node XE8545 testbed; a topology.ParseTopoSpec string (e.g.
	// "fat-tree:nodes=64" or "rail-only:nodes=64,rails=4") runs the
	// datacenter-scale model. Nodes defaults to the spec's node count and
	// must match it when set.
	Topo string
	// Algo selects the datacenter collective algorithm ("flat", "2level",
	// "multiring"; see collective.ParseAlgo). Defaults to "2level" on
	// datacenter fabrics; only valid there.
	Algo string
}

// IsDC reports whether the run targets a generated datacenter fabric rather
// than the paper's testbed.
func (c Config) IsDC() bool { return c.Topo != "" && c.Topo != topology.PaperTopo }

// MaxShards bounds Config.Shards well below sim.MaxShards; more shards than
// nodes never helps.
const MaxShards = 64

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BatchPerGPU == 0 {
		c.BatchPerGPU = model.DefaultBatchSize
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.IsDC() && c.Nodes == 0 {
		if dc, err := topology.ParseTopoSpec(c.Topo); err == nil {
			c.Nodes = dc.Nodes
		}
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Placement == nil && c.needsNVMe() {
		p := nvme.ConfigB()
		c.Placement = &p
	}
	if c.IsDC() && c.Algo == "" {
		c.Algo = collective.AlgoTwoLevel.String()
	}
	return c
}

func (c Config) needsNVMe() bool {
	return c.Offload == memory.NVMeOptimizer || c.Offload == memory.NVMeOptimizerAndParams
}

// WorldSize returns the number of GPUs.
func (c Config) WorldSize() int { return c.Nodes * topology.GPUsPerNode }

// Profile returns the memory profile for this configuration.
func (c Config) Profile() memory.Profile {
	c = c.withDefaults()
	world := c.WorldSize()
	switch c.Strategy {
	case DDP:
		return memory.DDPProfile(world)
	case Megatron:
		return memory.MegatronProfile(world)
	default:
		return memory.ZeROProfile(c.Strategy.ZeROStage(), world, c.Offload)
	}
}

// Validate reports configuration errors (invalid offload pairings per the
// paper's Table I, missing model, NVMe offload across nodes, …).
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.IsDC() {
		return c.validateDC()
	}
	if c.Algo != "" {
		return fmt.Errorf("train: Algo %q applies only to generated -topo fabrics", c.Algo)
	}
	if c.Nodes < 1 || c.Nodes > MaxNodes {
		return fmt.Errorf("train: %d nodes outside the supported 1-%d range (the paper uses 1-2)", c.Nodes, MaxNodes)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("train: %d shards above the supported maximum %d", c.Shards, MaxShards)
	}
	switch c.Strategy {
	case DDP, Megatron:
		if c.Offload != memory.NoOffload {
			return fmt.Errorf("train: %v does not support offload", c.Strategy)
		}
		if c.TensorParallel != 0 || c.PipelineParallel != 0 {
			if c.Strategy != Megatron {
				return fmt.Errorf("train: TP/PP degrees apply only to Megatron-LM")
			}
			if c.TensorParallel < 1 || c.PipelineParallel < 1 ||
				c.TensorParallel*c.PipelineParallel != c.WorldSize() {
				return fmt.Errorf("train: TP(%d) x PP(%d) must equal world size %d",
					c.TensorParallel, c.PipelineParallel, c.WorldSize())
			}
			if c.PipelineParallel > c.Model.Layers {
				return fmt.Errorf("train: %d pipeline stages exceed %d layers",
					c.PipelineParallel, c.Model.Layers)
			}
		}
	case ZeRO1, ZeRO2:
		if c.needsNVMe() {
			return fmt.Errorf("train: ZeRO-%d cannot offload to NVMe (Table I)", c.Strategy.ZeROStage())
		}
	case ZeRO3:
	default:
		return fmt.Errorf("train: unknown strategy %d", int(c.Strategy))
	}
	if c.needsNVMe() {
		if c.Nodes != 1 {
			return fmt.Errorf("train: the paper's NVMe offload experiments are single-node")
		}
		if err := c.Placement.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateDC checks a datacenter-fabric configuration. The DC model covers
// the data-parallel strategies (DDP and the ZeRO stages without offload) on
// purpose-built nodes; the testbed-specific machinery — NVMe offload,
// Megatron TP/PP wiring, fault hooks, trace capture, bandwidth what-if
// overrides — stays on the paper topology.
func (c Config) validateDC() error {
	dc, err := topology.ParseTopoSpec(c.Topo)
	if err != nil {
		return err
	}
	if _, err := collective.ParseAlgo(c.Algo); err != nil {
		return err
	}
	if c.Nodes != dc.Nodes {
		return fmt.Errorf("train: %d nodes conflicts with topo spec %q (%d nodes)", c.Nodes, c.Topo, dc.Nodes)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("train: %d shards above the supported maximum %d", c.Shards, MaxShards)
	}
	switch c.Strategy {
	case DDP, ZeRO1, ZeRO2, ZeRO3:
	default:
		return fmt.Errorf("train: %v is not supported on generated fabrics (data-parallel strategies only)", c.Strategy)
	}
	if c.Offload != memory.NoOffload || c.Placement != nil {
		return fmt.Errorf("train: offload is not modelled on generated fabrics")
	}
	if c.TensorParallel != 0 || c.PipelineParallel != 0 {
		return fmt.Errorf("train: TP/PP degrees are not modelled on generated fabrics")
	}
	if c.Trace {
		return fmt.Errorf("train: trace capture is not supported on generated fabrics")
	}
	if c.PurposeBuilt {
		return fmt.Errorf("train: PurposeBuilt selects a testbed variant; generated fabrics are already purpose-built")
	}
	if c.FaultInjection != nil {
		return fmt.Errorf("train: fault injection hooks take a testbed cluster")
	}
	if c.RoCEBW != 0 || c.XbarBW != 0 {
		return fmt.Errorf("train: RoCEBW/XbarBW overrides apply only to the testbed topology")
	}
	if c.Rewrite != 0 {
		return fmt.Errorf("train: schedule rewrites apply only to the testbed topology")
	}
	return nil
}

// Name returns a display label matching the paper's configuration names.
func (c Config) Name() string {
	c = c.withDefaults()
	label := c.Strategy.String()
	if c.PipelineParallel > 1 {
		label += fmt.Sprintf(" (TP=%d,PP=%d)", c.TensorParallel, c.PipelineParallel)
	}
	switch c.Offload {
	case memory.CPUOffload:
		label += " (CPU)"
	case memory.NVMeOptimizer:
		label += fmt.Sprintf(" (%d×NVMe opt)", len(c.Placement.Drives))
	case memory.NVMeOptimizerAndParams:
		label += fmt.Sprintf(" (%d×NVMe opt+param)", len(c.Placement.Drives))
	}
	if c.IsDC() {
		// Aliases ("hier", "ring") print under their canonical name.
		algo := c.Algo
		if parsed, err := collective.ParseAlgo(c.Algo); err == nil {
			algo = parsed.String()
		}
		if dc, err := topology.ParseTopoSpec(c.Topo); err == nil {
			label += fmt.Sprintf(" @%s/%s", dc.Spec(), algo)
		} else {
			label += fmt.Sprintf(" @%s/%s", c.Topo, algo)
		}
	}
	return label
}
