// Package whatif contains the sensitivity and ablation studies the paper's
// conclusions invite but its testbed could not run: what happens with faster
// or slower inter-node links, with all eight NVMe slots populated (the
// paper's closing recommendation), with different batch sizes, with the
// I/O-die crossbar contention removed, and with activation checkpointing
// toggled. Each study reuses the exact simulation substrate of the paper
// experiments, varying one knob.
package whatif

import (
	"fmt"
	"io"

	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/nvme"
	"llmbw/internal/report"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/stress"
	"llmbw/internal/topology"
	"llmbw/internal/train"
)

// Point is one sample of a sweep.
type Point struct {
	Label  string
	X      float64
	TFLOPs float64
	SizeB  float64
}

func runCfg(cfg train.Config) (*train.Result, error) {
	cfg.Iterations = 2
	cfg.Warmup = 1
	if cfg.Model.Layers == 0 {
		cfg.Model = model.NewGPT(cfg.Profile().MaxLayers(model.DefaultBatchSize, topology.GPUsPerNode))
	}
	// Sweep points repeat across studies (the same base run anchors several
	// figures) and cmd/servesim replays them; the result tier dedupes all of
	// it. Fault-injection configs fall through to a plain Run inside.
	return train.RunCached(cfg)
}

// RoCEBandwidthSweep measures dual-node throughput versus per-NIC Ethernet
// bandwidth for Megatron-LM and ZeRO-3: how fast would the network have to
// be before Megatron-LM stops collapsing? The x axis is the per-NIC
// bidirectional aggregate in GB/s (the paper's NICs are 50).
func RoCEBandwidthSweep(bwsGB []float64) ([]Point, error) {
	var out []Point
	for _, strat := range []train.Strategy{train.Megatron, train.ZeRO3} {
		for _, bw := range bwsGB {
			res, err := runCfg(train.Config{Strategy: strat, Nodes: 2, RoCEBW: bw * 1e9})
			if err != nil {
				return nil, err
			}
			out = append(out, Point{
				Label:  strat.String(),
				X:      bw,
				TFLOPs: res.AttainedTFLOPs,
				SizeB:  res.Config.Model.ParamsB(),
			})
		}
	}
	return out, nil
}

// NVMeScalingSweep measures ZeRO-Infinity throughput versus populated NVMe
// slots (1, 2, 4, 8 — topology-aware layouts A, B-local variant, G, H) at
// the largest model, testing the paper's claim that eight drives approach
// CPU-offload throughput.
func NVMeScalingSweep() ([]Point, error) {
	layouts := []nvme.Placement{
		nvme.ConfigA(), nvme.ConfigD(), nvme.ConfigG(), nvme.ConfigH(),
	}
	base := train.Config{Strategy: train.ZeRO3, Offload: memory.NVMeOptimizer}
	g := model.NewGPT(base.Profile().MaxLayers(model.DefaultBatchSize, topology.GPUsPerNode))
	var out []Point
	for _, p := range layouts {
		placement := p
		cfg := base
		cfg.Placement = &placement
		cfg.Model = g
		res, err := runCfg(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{
			Label:  "config " + p.Name,
			X:      float64(len(p.Drives)),
			TFLOPs: res.AttainedTFLOPs,
			SizeB:  g.ParamsB(),
		})
	}
	// Reference: CPU offload at the same model is not possible (the 29.6B
	// model exceeds the CPU-offload fit), so report ZeRO-2 (CPU) at its own
	// maximum as the paper's comparison point.
	cpu, err := runCfg(train.Config{Strategy: train.ZeRO2, Offload: memory.CPUOffload})
	if err != nil {
		return nil, err
	}
	out = append(out, Point{Label: "ZeRO-2 (CPU) reference", X: 0,
		TFLOPs: cpu.AttainedTFLOPs, SizeB: cpu.Config.Model.ParamsB()})
	return out, nil
}

// BatchSizeSweep measures ZeRO-3 throughput and maximum model size versus
// per-GPU batch size — the trade the paper alludes to in Sec V-B2 ("the free
// space on GPU memory can also be used for larger batch sizes").
func BatchSizeSweep(batches []int) ([]Point, error) {
	var out []Point
	for _, b := range batches {
		cfg := train.Config{Strategy: train.ZeRO3, BatchPerGPU: b}
		maxL := cfg.Profile().MaxLayers(b, topology.GPUsPerNode)
		if maxL == 0 {
			out = append(out, Point{Label: "ZeRO-3", X: float64(b)})
			continue
		}
		cfg.Model = model.NewGPT(maxL)
		res, err := runCfg(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Label: "ZeRO-3", X: float64(b),
			TFLOPs: res.AttainedTFLOPs, SizeB: cfg.Model.ParamsB()})
	}
	return out, nil
}

// xbarScenarios is the display order of the crossbar-ablation results — the
// paper's Fig 4 row order. XbarAblation keys its maps with exactly these
// names and XbarReport iterates this slice (never the maps), which is what
// keeps the rendered table byte-stable; a determinism regression test pins
// the two together.
var xbarScenarios = []string{
	"CPU-RoCE same-socket", "CPU-RoCE cross-socket",
	"GPU-RoCE same-socket", "GPU-RoCE cross-socket",
}

// XbarAblation reruns the Fig 4 stress tests with the I/O-die crossbar
// contention effectively removed (budget raised to the full SerDes rate),
// isolating how much of the paper's degradation the hypothesis explains.
func XbarAblation(dur sim.Time) (withXbar, withoutXbar map[string]float64) {
	run := func(xbar float64) map[string]float64 {
		out := make(map[string]float64)
		mk := func(cross bool, gpu bool) stress.BandwidthResult {
			cfg := topology.DefaultConfig(2)
			if xbar > 0 {
				cfg.XbarBW = xbar
			}
			c := topology.New(cfg)
			if gpu {
				return stress.GPURoCEStressOn(c, cross, dur)
			}
			return stress.CPURoCEStressOn(c, cross, dur)
		}
		out["CPU-RoCE same-socket"] = mk(false, false).AttainedFraction(fabric.RoCE)
		out["CPU-RoCE cross-socket"] = mk(true, false).AttainedFraction(fabric.RoCE)
		out["GPU-RoCE same-socket"] = mk(false, true).AttainedFraction(fabric.RoCE)
		out["GPU-RoCE cross-socket"] = mk(true, true).AttainedFraction(fabric.RoCE)
		return out
	}
	return run(0), run(1e12)
}

// CheckpointingAblation reports the maximum ZeRO-3 model size with and
// without activation checkpointing — the design choice that lets DeepSpeed
// trade one recompute forward pass for the memory that determines Fig 6.
func CheckpointingAblation() (withCkpt, withoutCkpt model.GPT) {
	on := memory.ZeROProfile(3, 4, memory.NoOffload)
	off := on
	off.ActivationCkpt = false
	return on.MaxModel(model.DefaultBatchSize, topology.GPUsPerNode),
		off.MaxModel(model.DefaultBatchSize, topology.GPUsPerNode)
}

// ---- report renderers (registered as extension experiments in core) ----

// RoCEReport runs and prints the RoCE bandwidth sweep.
func RoCEReport(w io.Writer) error {
	pts, err := RoCEBandwidthSweep([]float64{12.5, 25, 50, 100, 200, 400})
	if err != nil {
		return err
	}
	t := report.NewTable("What-if: dual-node throughput vs per-NIC bandwidth",
		"framework", "NIC GB/s", "TFLOP/s", "model (B)")
	for _, p := range pts {
		t.Row(p.Label, p.X, p.TFLOPs, p.SizeB)
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: below the paper's 50 GB/s NICs both frameworks lose throughput,")
	fmt.Fprintln(w, "Megatron-LM fastest; above them neither improves — the EPYC I/O-die")
	fmt.Fprintln(w, "crossbar (not the NIC) becomes the binding link, so upgrading the network")
	fmt.Fprintln(w, "alone cannot rescue Megatron-LM on this platform.")
	return nil
}

// NVMeScalingReport runs and prints the drive-count sweep.
func NVMeScalingReport(w io.Writer) error {
	pts, err := NVMeScalingSweep()
	if err != nil {
		return err
	}
	t := report.NewTable("What-if: ZeRO-Infinity throughput vs populated NVMe slots",
		"layout", "drives", "TFLOP/s", "model (B)")
	for _, p := range pts {
		t.Row(p.Label, p.X, p.TFLOPs, p.SizeB)
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: eight topology-aware drives bring NVMe offload into the same")
	fmt.Fprintln(w, "throughput band as CPU offload — the paper's closing prediction.")
	return nil
}

// BatchReport runs and prints the batch-size sweep.
func BatchReport(w io.Writer) error {
	pts, err := BatchSizeSweep([]int{4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	t := report.NewTable("What-if: ZeRO-3 max size and throughput vs per-GPU batch",
		"batch/GPU", "max model (B)", "TFLOP/s")
	for _, p := range pts {
		t.Row(int(p.X), p.SizeB, p.TFLOPs)
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: larger batches raise attained TFLOP/s but shrink the largest")
	fmt.Fprintln(w, "trainable model — the memory trade the paper notes in Sec V-B2.")
	return nil
}

// XbarReport runs and prints the crossbar ablation.
func XbarReport(w io.Writer, dur sim.Time) error {
	with, without := XbarAblation(dur)
	t := report.NewTable("Ablation: I/O-die crossbar contention (attained fraction of RoCE theoretical)",
		"scenario", "with crossbar", "without", "paper (with)")
	for _, k := range xbarScenarios {
		t.Row(k, fmt.Sprintf("%.0f%%", with[k]*100), fmt.Sprintf("%.0f%%", without[k]*100),
			fmt.Sprintf("%.0f%%", report.Fig4Stress[k]*100))
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: removing the modelled SerDes-crossbar contention restores every")
	fmt.Fprintln(w, "scenario to near-theoretical — the degradations of Fig 4 are entirely the")
	fmt.Fprintln(w, "crossbar, supporting the paper's Section III-C4 hypothesis.")
	return nil
}

// CheckpointReport prints the activation-checkpointing ablation.
func CheckpointReport(w io.Writer) error {
	on, off := CheckpointingAblation()
	t := report.NewTable("Ablation: activation checkpointing (ZeRO-3, single node)",
		"checkpointing", "max model (B)", "layers")
	t.Row("on (paper's DeepSpeed configs)", on.ParamsB(), on.Layers)
	t.Row("off", off.ParamsB(), off.Layers)
	t.Render(w)
	fmt.Fprintf(w, "finding: checkpointing multiplies the largest trainable model by %.1fx\n",
		on.ParamsB()/off.ParamsB())
	return nil
}

// HybridReport compares pure tensor parallelism against TP×PP hybrids on two
// nodes — the deployment question behind the paper's Megatron configuration.
func HybridReport(w io.Writer) error {
	g := model.NewGPT(model.LayersForParams(10e9))
	t := report.NewTable("Extension: Megatron-LM hybrid parallelism across two nodes (10 B model)",
		"TP", "PP", "TFLOP/s", "RoCE avg GB/s")
	for _, d := range []struct{ tp, pp int }{{8, 1}, {4, 2}, {2, 4}, {1, 8}} {
		cfg := train.Config{Strategy: train.Megatron, Nodes: 2,
			TensorParallel: d.tp, PipelineParallel: d.pp, Model: g}
		res, err := runCfg(cfg)
		if err != nil {
			return err
		}
		t.Row(d.tp, d.pp, res.AttainedTFLOPs, res.Stats[fabric.RoCE].Avg/1e9)
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: keeping tensor parallelism inside the node and pipelining across")
	fmt.Fprintln(w, "it recovers most of Megatron-LM's dual-node collapse.")
	return nil
}

// StragglerStudy quantifies synchronous data parallelism's sensitivity to a
// slow rank, using the per-rank DDP reference implementation: one GPU runs
// at the given slowdown factor (e.g. 1.3 = 30% slower, a thermally throttled
// part), and the whole job pays.
func StragglerStudy(slowdowns []float64) ([]Point, error) {
	cfg := train.Config{Strategy: train.DDP}
	g := model.NewGPT(cfg.Profile().MaxLayers(model.DefaultBatchSize, topology.GPUsPerNode))
	var out []Point
	for _, f := range slowdowns {
		mp := train.MultiProcConfig{Model: g, Iterations: 3}
		if f > 1 {
			mp.RankSlowdown = map[int]float64{0: f}
		}
		res, err := train.RunDDPMultiProcess(mp)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Label: "DDP", X: f, TFLOPs: res.AttainedTFLOPs, SizeB: g.ParamsB()})
	}
	return out, nil
}

// DegradedNICStudy trains ZeRO-3 across two nodes while one NIC's Ethernet
// link degrades to the given fraction of its bandwidth halfway through the
// run — a flapping transceiver or congested switch port. Returns nominal and
// degraded throughput.
func DegradedNICStudy(fraction float64, degradeAfter sim.Time) (nominal, degraded float64, err error) {
	base := train.Config{Strategy: train.ZeRO3, Nodes: 2, Iterations: 3, Warmup: 1}
	g := model.NewGPT(base.Profile().MaxLayers(model.DefaultBatchSize, topology.GPUsPerNode))
	base.Model = g
	res, err := train.RunCached(base)
	if err != nil {
		return 0, 0, err
	}
	nominal = res.AttainedTFLOPs

	faulty := base
	faulty.FaultInjection = func(c *topology.Cluster) {
		link := c.RoCELink(topology.NIC{Node: 0, Socket: 0})
		c.Eng.Schedule(degradeAfter, func() {
			c.Net.SetCapacity(link, link.Capacity()*fraction)
		})
	}
	res, err = train.Run(faulty)
	if err != nil {
		return 0, 0, err
	}
	return nominal, res.AttainedTFLOPs, nil
}

// ResilienceReport prints the straggler and degraded-NIC studies.
func ResilienceReport(w io.Writer) error {
	pts, err := StragglerStudy([]float64{1.0, 1.1, 1.3, 1.5, 2.0})
	if err != nil {
		return err
	}
	t := report.NewTable("What-if: one straggling GPU under synchronous DDP",
		"slowdown of one rank", "aggregate TFLOP/s", "fraction of nominal")
	nominal := pts[0].TFLOPs
	for _, p := range pts {
		t.Row(fmt.Sprintf("%.1fx", p.X), p.TFLOPs, fmt.Sprintf("%.0f%%", p.TFLOPs/nominal*100))
	}
	t.Render(w)

	nom, deg, err := DegradedNICStudy(0.25, 5*sim.Second)
	if err != nil {
		return err
	}
	t2 := report.NewTable("What-if: one NIC degrades to 25% mid-run (ZeRO-3, dual node)",
		"condition", "TFLOP/s")
	t2.Row("nominal", nom)
	t2.Row("degraded NIC", deg)
	t2.Render(w)
	fmt.Fprintln(w, "finding: synchronous training inherits the slowest rank's pace and the")
	fmt.Fprintln(w, "weakest link's bandwidth — monitoring per-device health matters as much")
	fmt.Fprintln(w, "as the average numbers the paper reports.")
	return nil
}

// PlatformReport compares the mainstream XE8545 cluster against a
// purpose-built AI platform of identical GPU count across two nodes — the
// contrast the paper's introduction draws ("purpose-built AI clusters …
// are simply out of reach for many researchers").
func PlatformReport(w io.Writer) error {
	t := report.NewTable("Extension: mainstream vs purpose-built platform (dual node, max models)",
		"framework", "mainstream TFLOP/s", "purpose-built TFLOP/s", "gain")
	for _, strat := range []train.Strategy{train.DDP, train.Megatron, train.ZeRO3} {
		main, err := runCfg(train.Config{Strategy: strat, Nodes: 2})
		if err != nil {
			return err
		}
		pb, err := runCfg(train.Config{Strategy: strat, Nodes: 2, PurposeBuilt: true})
		if err != nil {
			return err
		}
		t.Row(strat.String(), main.AttainedTFLOPs, pb.AttainedTFLOPs,
			fmt.Sprintf("%.1fx", pb.AttainedTFLOPs/main.AttainedTFLOPs))
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: the purpose-built fabric helps Megatron-LM most (~1.8x) but even")
	fmt.Fprintln(w, "there its per-layer synchronization keeps it behind ZeRO — and ZeRO/DDP")
	fmt.Fprintln(w, "already reach most of the purpose-built numbers on mainstream hardware,")
	fmt.Fprintln(w, "which is exactly the democratization argument the paper makes.")
	return nil
}

// OverlapAblation quantifies the communication/computation overlap each
// strategy's schedule buys: the same compiled iteration program is re-run
// with the schedule.RewriteSerializeComm rewrite, which turns every
// stream-overlapped collective into an exposed synchronous one at its issue
// point. The gap between a schedule and its serialized rewrite is the value
// of DDP's gradient bucketing and ZeRO's prefetch pipelines — measured as a
// program transformation on the schedule IR rather than a forked strategy
// implementation.
func OverlapAblation() (overlapped, serialized []Point, err error) {
	cases := []struct {
		label string
		cfg   train.Config
	}{
		{"DDP", train.Config{Strategy: train.DDP}},
		{"ZeRO-2", train.Config{Strategy: train.ZeRO2}},
		{"ZeRO-3", train.Config{Strategy: train.ZeRO3}},
		{"ZeRO-3 dual-node", train.Config{Strategy: train.ZeRO3, Nodes: 2}},
	}
	for _, c := range cases {
		base, err := runCfg(c.cfg)
		if err != nil {
			return nil, nil, err
		}
		serial := c.cfg
		serial.Model = base.Config.Model // same model for both runs
		serial.Rewrite = schedule.RewriteSerializeComm
		ser, err := runCfg(serial)
		if err != nil {
			return nil, nil, err
		}
		overlapped = append(overlapped, Point{Label: c.label,
			TFLOPs: base.AttainedTFLOPs, X: base.IterTime.ToSeconds() * 1e3})
		serialized = append(serialized, Point{Label: c.label,
			TFLOPs: ser.AttainedTFLOPs, X: ser.IterTime.ToSeconds() * 1e3})
	}
	return overlapped, serialized, nil
}

// OverlapReport prints the overlap ablation.
func OverlapReport(w io.Writer) error {
	over, serial, err := OverlapAblation()
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation: communication/computation overlap (schedule-IR serialize-comm rewrite)",
		"configuration", "overlapped ms", "serialized ms", "overlap gain")
	for i := range over {
		gain := serial[i].X/over[i].X - 1
		t.Row(over[i].Label, fmt.Sprintf("%.1f", over[i].X), fmt.Sprintf("%.1f", serial[i].X),
			fmt.Sprintf("%.0f%%", gain*100))
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: on one node NVLink keeps the exposed cost of serialization small")
	fmt.Fprintln(w, "(compute hides only a few percent); across nodes the slow RoCE collectives")
	fmt.Fprintln(w, "make ZeRO-3's prefetch pipeline worth over half an iteration — overlap is")
	fmt.Fprintln(w, "what keeps the dual-node numbers of Table VI trainable at all.")
	return nil
}

// ScalingStudy runs weak scaling beyond the paper's two nodes: each
// framework trains a fixed-size model on 1..maxNodes nodes of the same
// mainstream cluster design (per-GPU batch fixed, so global work grows with
// the cluster).
func ScalingStudy(maxNodes int, sizeB float64) ([]Point, error) {
	g := model.NewGPT(model.LayersForParams(int64(sizeB * 1e9)))
	var out []Point
	for _, strat := range []train.Strategy{train.DDP, train.ZeRO3, train.Megatron} {
		for nodes := 1; nodes <= maxNodes; nodes *= 2 {
			cfg := train.Config{Strategy: strat, Nodes: nodes, Model: g}
			if !cfg.Profile().Fits(g, model.DefaultBatchSize, topology.GPUsPerNode) {
				continue
			}
			res, err := runCfg(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, Point{Label: strat.String(), X: float64(nodes),
				TFLOPs: res.AttainedTFLOPs, SizeB: sizeB})
		}
	}
	return out, nil
}

// ScalingReport prints the weak-scaling study.
func ScalingReport(w io.Writer) error {
	pts, err := ScalingStudy(8, 1.2)
	if err != nil {
		return err
	}
	t := report.NewTable("Extension: weak scaling beyond the paper's two nodes (1.2 B model)",
		"framework", "nodes", "GPUs", "TFLOP/s", "TFLOP/s per GPU")
	for _, p := range pts {
		gpus := p.X * 4
		t.Row(p.Label, int(p.X), int(gpus), p.TFLOPs, p.TFLOPs/gpus)
	}
	t.Render(w)
	fmt.Fprintln(w, "finding: DDP and ZeRO keep most of their per-GPU throughput to 8 nodes")
	fmt.Fprintln(w, "(inter-node volume per GPU shrinks as the ring grows), while Megatron-LM's")
	fmt.Fprintln(w, "per-layer all-reduces make it worse with every node added.")
	return nil
}
