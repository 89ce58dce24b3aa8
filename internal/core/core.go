// Package core is the public facade of the reproduction: a registry of
// experiments, one per table and figure of the paper, each of which runs the
// corresponding simulation and prints the regenerated rows or series next to
// the paper's published values.
//
// The heavy lifting lives in the substrate packages (topology, fabric,
// train, nvme, stress); core only composes them into the paper's evaluation
// protocol:
//
//	Fig 1   LLM size vs GPU memory trend
//	Fig 2   cluster topology
//	Fig 3   RoCE latency sweep (SEND / RDMA READ / RDMA WRITE)
//	Fig 4   CPU-RoCE and GPU-RoCE bandwidth stress
//	Fig 5   single-iteration timelines at the small model
//	Fig 6   achieved model size (single and dual node)
//	Fig 7   attained compute throughput (single and dual node)
//	Fig 8   throughput vs model-size trade-off
//	Fig 9   single-node NVLink utilization pattern
//	Fig 10  dual-node NVLink / PCIe / RoCE utilization patterns
//	Fig 11  consolidation throughput and memory composition
//	Fig 12  offload bandwidth utilization patterns
//	Fig 13  largest single-node models with offload
//	Fig 14  NVMe placement configurations A-G
//	Table I    ZeRO stage and offload capability matrix
//	Table II   hardware and software setup
//	Table III  interconnect bandwidths and counts
//	Table IV   bandwidth utilization (avg / 90th / peak) for all runs
//	Table V    sensitivity of throughput to model size
//	Table VI   ZeRO-Infinity vs NVMe placement configurations
package core

import (
	"fmt"
	"io"
	"sort"

	"llmbw/internal/model"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
	"llmbw/internal/train"
)

// Options tunes how much simulated work each experiment performs. The zero
// value gives a fast but statistically meaningful run; raise Iterations and
// PatternSeconds to approach the paper's measurement intervals.
type Options struct {
	// Iterations measured per training run (default 3).
	Iterations int
	// Warmup iterations before measurement starts (default 1; the paper
	// collects from the fifth iteration of ten).
	Warmup int
	// PatternSeconds is the simulated duration for utilization-pattern
	// figures (default 30; the paper plots 200 s windows).
	PatternSeconds float64
	// StressSeconds is the simulated duration of bandwidth stress kernels
	// (default 10).
	StressSeconds float64
	// ArtifactsDir, when set, makes experiments write machine-readable
	// artifacts next to their textual output: Chrome trace-event JSON for
	// the Fig 5 timelines (viewable in ui.perfetto.dev) and CSV bandwidth
	// series for the pattern figures (Fig 9, 10, 12).
	ArtifactsDir string
	// Shards requests simulation shards for the training runs, clamped to
	// the partitions each fabric has: one on the testbed, up to the pod
	// count on a generated fabric with a hierarchical algorithm (see
	// train.Config.Shards). Output does not depend on it.
	Shards int
	// Topo, when set, adds a custom generated fabric (a topology.ParseTopoSpec
	// spec such as "fat-tree:nodes=32") to the datacenter-fabric extension
	// studies; Algo picks their collective algorithm (flat | 2level |
	// multiring, default 2level). The testbed reproductions ignore both.
	Topo string
	Algo string
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 3
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.PatternSeconds == 0 {
		o.PatternSeconds = 30
	}
	if o.StressSeconds == 0 {
		o.StressSeconds = 10
	}
	return o
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, opt Options) error
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "LLM size vs GPU memory trend", Fig1},
		{"fig2", "Cluster topology", Fig2},
		{"fig3", "RoCE latency sweep", Fig3},
		{"fig4", "Bandwidth stress tests", Fig4},
		{"fig5", "Single-iteration timelines", Fig5},
		{"fig6", "Achieved model size", Fig6},
		{"fig7", "Compute throughput", Fig7},
		{"fig8", "Throughput vs model size trade-off", Fig8},
		{"fig9", "Single-node NVLink utilization pattern", Fig9},
		{"fig10", "Dual-node utilization patterns", Fig10},
		{"fig11", "Consolidation throughput and memory", Fig11},
		{"fig12", "Offload utilization patterns", Fig12},
		{"fig13", "Largest single-node models", Fig13},
		{"fig14", "NVMe placement configurations", Fig14},
		{"table1", "ZeRO stage and offload capability", Table1},
		{"table2", "Hardware and software setup", Table2},
		{"table3", "Interconnect bandwidths", Table3},
		{"table4", "Bandwidth utilization measurements", Table4},
		{"table5", "Throughput sensitivity to model size", Table5},
		{"table6", "ZeRO-Infinity vs NVMe configurations", Table6},
	}
}

// Get returns the experiment with the given id, searching both the paper
// reproductions and the extension studies.
func Get(id string) (Experiment, error) {
	all := append(Experiments(), Extensions()...)
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (have %v)", id, ids)
}

// MaxModel returns the largest model a training configuration fits,
// mirroring the paper's procedure of growing the layer count to the limit.
func MaxModel(cfg train.Config) model.GPT {
	return model.NewGPT(cfg.Profile().MaxLayers(model.DefaultBatchSize, topology.GPUsPerNode))
}

// RunMax trains a configuration at its maximum model size.
func RunMax(cfg train.Config, opt Options) (*train.Result, error) {
	opt = opt.withDefaults()
	cfg.Model = MaxModel(cfg)
	cfg.Iterations = opt.Iterations
	cfg.Warmup = opt.Warmup
	cfg.Shards = opt.Shards
	return train.RunCached(cfg)
}

// RunAt trains a configuration at an explicit model size.
func RunAt(cfg train.Config, g model.GPT, opt Options) (*train.Result, error) {
	opt = opt.withDefaults()
	cfg.Model = g
	cfg.Iterations = opt.Iterations
	cfg.Warmup = opt.Warmup
	cfg.Shards = opt.Shards
	return train.RunCached(cfg)
}

// RunForDuration trains until roughly the requested simulated duration has
// elapsed, for the utilization-pattern figures: it estimates the iteration
// time from a short probe run and sizes the iteration count accordingly.
func RunForDuration(cfg train.Config, g model.GPT, seconds float64, opt Options) (*train.Result, error) {
	opt = opt.withDefaults()
	probe := cfg
	probe.Model = g
	probe.Iterations = 1
	probe.Warmup = 1
	probe.Shards = opt.Shards
	pr, err := train.RunCached(probe)
	if err != nil {
		return nil, err
	}
	iters := int(sim.Seconds(seconds) / pr.IterTime)
	if iters < 2 {
		iters = 2
	}
	if iters > 200 {
		iters = 200
	}
	cfg.Model = g
	cfg.Iterations = iters
	cfg.Warmup = opt.Warmup
	cfg.Shards = opt.Shards
	return train.RunCached(cfg)
}
