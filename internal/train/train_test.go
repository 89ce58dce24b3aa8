package train

import (
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/trace"
)

// quickRun executes a short run (2 measured iterations) for tests.
func quickRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Iterations = 2
	cfg.Warmup = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Name(), err)
	}
	return res
}

// maxFit returns the largest model for a config.
func maxFit(cfg Config) model.GPT {
	return model.NewGPT(cfg.Profile().MaxLayers(model.DefaultBatchSize, 4))
}

func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if got < want*(1-frac) || got > want*(1+frac) {
		t.Errorf("%s = %.1f, want %.1f ±%.0f%%", name, got, want, frac*100)
	}
}

// TestFig7SingleNodeThroughput reproduces the paper's Fig 7-a attained
// TFLOP/s at each strategy's maximum single-node model size.
func TestFig7SingleNodeThroughput(t *testing.T) {
	cases := []struct {
		strat Strategy
		paper float64
		tol   float64
	}{
		{DDP, 438, 0.15},
		{Megatron, 331, 0.20},
		{ZeRO1, 391, 0.15},
		{ZeRO2, 524, 0.15},
		{ZeRO3, 381, 0.15},
	}
	for _, c := range cases {
		cfg := Config{Strategy: c.strat, Nodes: 1}
		cfg.Model = maxFit(cfg)
		res := quickRun(t, cfg)
		within(t, cfg.Name()+" single-node TFLOP/s", res.AttainedTFLOPs, c.paper, c.tol)
	}
}

// TestFig7DualNodeThroughput reproduces Fig 7-b. Tolerances are looser: the
// dual-node ZeRO results carry the largest calibration residue (see
// EXPERIMENTS.md), but the ordering test below pins the qualitative shape.
func TestFig7DualNodeThroughput(t *testing.T) {
	cases := []struct {
		strat Strategy
		paper float64
		tol   float64
	}{
		{DDP, 640, 0.20},
		{Megatron, 121, 0.20},
		{ZeRO1, 395, 0.20},
		{ZeRO2, 424, 0.25},
		{ZeRO3, 458, 0.40},
	}
	for _, c := range cases {
		cfg := Config{Strategy: c.strat, Nodes: 2}
		cfg.Model = maxFit(cfg)
		res := quickRun(t, cfg)
		within(t, cfg.Name()+" dual-node TFLOP/s", res.AttainedTFLOPs, c.paper, c.tol)
	}
}

// TestDualNodeOrdering pins the paper's central dual-node conclusion:
// DDP > ZeRO-3 > ZeRO-2 ≥ ZeRO-1 >> Megatron-LM, with Megatron at a fraction
// of the ZeRO throughput due to inter-node all-reduces.
func TestDualNodeOrdering(t *testing.T) {
	tput := map[Strategy]float64{}
	for _, s := range []Strategy{DDP, Megatron, ZeRO1, ZeRO2, ZeRO3} {
		cfg := Config{Strategy: s, Nodes: 2}
		cfg.Model = maxFit(cfg)
		tput[s] = quickRun(t, cfg).AttainedTFLOPs
	}
	if !(tput[DDP] > tput[ZeRO3] && tput[ZeRO3] > tput[ZeRO2] &&
		tput[ZeRO2] >= tput[ZeRO1]*0.95 && tput[ZeRO1] > tput[Megatron]) {
		t.Errorf("dual-node ordering violated: %v", tput)
	}
	// Paper: ZeRO gives 3.26x-3.78x Megatron's throughput on dual nodes.
	for _, s := range []Strategy{ZeRO1, ZeRO2, ZeRO3} {
		if ratio := tput[s] / tput[Megatron]; ratio < 2.5 {
			t.Errorf("%v/Megatron dual = %.2fx, paper reports 3.26-3.78x", s, ratio)
		}
	}
	// Paper: Megatron dual achieves ~0.19x of DDP.
	if ratio := tput[Megatron] / tput[DDP]; ratio > 0.35 {
		t.Errorf("Megatron/DDP dual = %.2fx, paper reports 0.19x", ratio)
	}
}

// TestMegatronCollapsesAcrossNodes: the headline Megatron result — dual-node
// throughput far below single-node despite 8 GPUs.
func TestMegatronCollapsesAcrossNodes(t *testing.T) {
	single := Config{Strategy: Megatron, Nodes: 1}
	single.Model = maxFit(single)
	dual := Config{Strategy: Megatron, Nodes: 2}
	dual.Model = maxFit(dual)
	ts := quickRun(t, single).AttainedTFLOPs
	td := quickRun(t, dual).AttainedTFLOPs
	if td >= ts*0.75 {
		t.Errorf("Megatron dual (%.0f) should collapse versus single (%.0f)", td, ts)
	}
}

// TestDDPScalesAcrossNodes: DDP gains from the second node (paper: +46%).
func TestDDPScalesAcrossNodes(t *testing.T) {
	m := maxFit(Config{Strategy: DDP, Nodes: 1})
	ts := quickRun(t, Config{Strategy: DDP, Nodes: 1, Model: m}).AttainedTFLOPs
	td := quickRun(t, Config{Strategy: DDP, Nodes: 2, Model: m}).AttainedTFLOPs
	if td <= ts {
		t.Errorf("DDP dual (%.0f) should beat single (%.0f)", td, ts)
	}
	if gain := td/ts - 1; gain > 0.9 {
		t.Errorf("DDP dual gain = +%.0f%%, paper reports +46%% (inter-node overhead missing)", gain*100)
	}
}

// TestFig11Consolidation: ZeRO-Offload fits the dual-node Megatron model
// (11.4 B) in one node at higher throughput; ZeRO-3 offload is slower than
// ZeRO-2 offload; NVMe offload is slower still, and a second drive helps.
func TestFig11Consolidation(t *testing.T) {
	// "The largest model Megatron-LM can handle on dual nodes" — the
	// paper's 11.4 B; our calibrated fit lands within 10% of it.
	g := maxFit(Config{Strategy: Megatron, Nodes: 2})
	megDual := Config{Strategy: Megatron, Nodes: 2, Model: g}
	tMeg := quickRun(t, megDual).AttainedTFLOPs

	z2 := quickRun(t, Config{Strategy: ZeRO2, Offload: memory.CPUOffload, Model: g}).AttainedTFLOPs
	z3 := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.CPUOffload, Model: g}).AttainedTFLOPs
	if z2 <= tMeg {
		t.Errorf("ZeRO-2 (CPU) %.0f should beat dual-node Megatron %.0f (paper: +57.8%%)", z2, tMeg)
	}
	if z3 >= z2 {
		t.Errorf("ZeRO-3 (CPU) %.0f should be below ZeRO-2 (CPU) %.0f", z3, z2)
	}
	within(t, "ZeRO-2 (CPU) TFLOP/s", z2, 191, 0.25)
	within(t, "ZeRO-3 (CPU) TFLOP/s", z3, 126, 0.25)

	nv2 := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: g}).AttainedTFLOPs
	within(t, "ZeRO-Infinity 2xNVMe opt TFLOP/s", nv2, 38.1, 0.30)
	nvAll := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizerAndParams, Model: g}).AttainedTFLOPs
	if nvAll >= nv2 {
		t.Errorf("offloading params to NVMe (%.1f) should cost throughput vs optimizer-only (%.1f)", nvAll, nv2)
	}
	if z3 <= nv2 {
		t.Error("CPU offload should beat NVMe offload")
	}
}

// TestSecondNVMeDriveHelps reproduces the paper's 86.7% single->dual drive
// improvement for optimizer offload.
func TestSecondNVMeDriveHelps(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(11.4e9))
	a := nvmeConfig(t, "A")
	b := nvmeConfig(t, "B")
	t1 := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: g, Placement: &a}).AttainedTFLOPs
	t2 := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: g, Placement: &b}).AttainedTFLOPs
	gain := t2/t1 - 1
	if gain < 0.5 || gain > 1.3 {
		t.Errorf("second NVMe drive gain = +%.0f%%, paper reports +86.7%%", gain*100)
	}
}

// TestTableVSensitivityShapes checks Table V's qualitative rows: throughput
// grows with model size for DDP/Megatron/ZeRO-2; ZeRO-1 drops at its maximum
// size; offload variants are flat.
func TestTableVSensitivityShapes(t *testing.T) {
	run := func(s Strategy, off memory.Offload, layers int) float64 {
		return quickRun(t, Config{Strategy: s, Offload: off, Model: model.NewGPT(layers)}).AttainedTFLOPs
	}
	// DDP grows 0.7B -> max.
	ddpMax := maxFit(Config{Strategy: DDP}).Layers
	if a, b := run(DDP, memory.NoOffload, ddpMax/2), run(DDP, memory.NoOffload, ddpMax); b <= a {
		t.Errorf("DDP throughput should grow with size: %.0f -> %.0f", a, b)
	}
	// ZeRO-1 drops at maximum size versus a mid size (paper: 487 -> 391).
	z1max := Config{Strategy: ZeRO1}
	maxL := z1max.Profile().MaxLayers(model.DefaultBatchSize, 4)
	mid := run(ZeRO1, memory.NoOffload, maxL/2)
	max := run(ZeRO1, memory.NoOffload, maxL)
	if max >= mid {
		t.Errorf("ZeRO-1 at max size (%.0f) should drop below mid size (%.0f)", max, mid)
	}
	// ZeRO-2 (CPU) is flat across sizes (paper: 164-192 over 0.7-14.2B).
	small := run(ZeRO2, memory.CPUOffload, 26)
	large := run(ZeRO2, memory.CPUOffload, 224)
	if ratio := large / small; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("ZeRO-2 (CPU) not stable across sizes: %.0f vs %.0f", small, large)
	}
}

// TestTableIVBandwidthShapesSingleNode checks the single-node bandwidth
// conclusions: NVLink does the heavy lifting; Megatron uses ~3x DDP's
// NVLink; ZeRO sits between; everything else is near idle; RoCE unused.
func TestTableIVBandwidthShapesSingleNode(t *testing.T) {
	nv := map[Strategy]float64{}
	for _, s := range []Strategy{DDP, Megatron, ZeRO1, ZeRO2, ZeRO3} {
		cfg := Config{Strategy: s, Nodes: 1, Iterations: 8, Warmup: 2}
		cfg.Model = maxFit(cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", cfg.Name(), err)
		}
		nv[s] = res.Stats[fabric.NVLink].Avg / 1e9
		if roce := res.Stats[fabric.RoCE].Avg; roce != 0 {
			t.Errorf("%v single-node RoCE = %v, want 0", s, roce)
		}
		if dram := res.Stats[fabric.DRAM].Avg / 1e9; dram > 6 {
			t.Errorf("%v single-node DRAM avg = %.1f GB/s, paper reports <6", s, dram)
		}
		if nvme := res.Stats[fabric.PCIeNVME].Avg; nvme != 0 {
			t.Errorf("%v single-node NVMe traffic = %v, want 0", s, nvme)
		}
	}
	// Paper reports ~3x; our DDP model moves the same gradient volume in a
	// shorter iteration, compressing the ratio (see EXPERIMENTS.md).
	if ratio := nv[Megatron] / nv[DDP]; ratio < 1.5 {
		t.Errorf("Megatron/DDP NVLink = %.1fx, paper reports ~3x", ratio)
	}
	within(t, "ZeRO-2 NVLink avg GB/s", nv[ZeRO2], 97.3, 0.25)
	within(t, "ZeRO-3 NVLink avg GB/s", nv[ZeRO3], 99.7, 0.25)
}

// TestTableIVDualNodeXGMI: dual-node training puts real traffic on xGMI
// (cross-socket NIC paths), absent in single-node runs.
func TestTableIVDualNodeXGMI(t *testing.T) {
	cfg := Config{Strategy: ZeRO3, Nodes: 2}
	cfg.Model = maxFit(cfg)
	res := quickRun(t, cfg)
	x := res.Stats[fabric.XGMI].Avg / 1e9
	if x < 3 {
		t.Errorf("dual-node ZeRO-3 xGMI avg = %.1f GB/s, paper reports ~10", x)
	}
	if res.Stats[fabric.RoCE].Avg <= 0 {
		t.Error("dual-node run shows no RoCE traffic")
	}
}

// TestOffloadBandwidthShapes reproduces Table IV's third section: CPU
// offload lights up DRAM and xGMI while NVLink quietens down.
func TestOffloadBandwidthShapes(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(11.4e9))
	res := quickRun(t, Config{Strategy: ZeRO2, Offload: memory.CPUOffload, Model: g})
	dram := res.Stats[fabric.DRAM].Avg / 1e9
	within(t, "ZeRO-2 (CPU) DRAM avg GB/s", dram, 73.1, 0.30)
	if x := res.Stats[fabric.XGMI].Avg / 1e9; x < 8 {
		t.Errorf("offload xGMI avg = %.1f, paper reports 18.1 (NUMA-unaware staging)", x)
	}
	// Compare to a non-offload run: DRAM an order of magnitude lower.
	base := Config{Strategy: ZeRO2, Nodes: 1}
	base.Model = maxFit(base)
	b := quickRun(t, base)
	if b.Stats[fabric.DRAM].Avg*5 > res.Stats[fabric.DRAM].Avg {
		t.Error("CPU offload should dominate non-offload DRAM traffic")
	}
}

// TestNVMeOffloadBandwidthBursty reproduces Sec V-B3: PCIe-NVMe shows low
// average with pronounced peaks (DRAM-cache bursts).
func TestNVMeOffloadBandwidthBursty(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(11.4e9))
	res := quickRun(t, Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: g})
	st := res.Stats[fabric.PCIeNVME]
	if st.Avg <= 0 {
		t.Fatal("no NVMe traffic in ZeRO-Infinity run")
	}
	if st.Peak < st.Avg*1.2 {
		t.Errorf("NVMe peak (%.1f) should exceed average (%.1f)", st.Peak/1e9, st.Avg/1e9)
	}
}

// TestFig5TraceShapes checks the per-GPU timeline characterization at the
// 1.4 B model: Megatron shows heavy all-reduce; ZeRO-3 shows all-gathers;
// offload shows GPU idle during CPUAdam; iteration-time ordering matches
// Fig 5 (ZeRO-2 < DDP < ZeRO-3 < offload variants).
func TestFig5TraceShapes(t *testing.T) {
	g := maxFit(Config{Strategy: DDP}) // the paper's small (~1.4 B) model
	iter := map[string]float64{}
	runTraced := func(name string, cfg Config) *Result {
		cfg.Model = g
		cfg.Trace = true
		res := quickRun(t, cfg)
		if res.Trace == nil {
			t.Fatalf("%s: no trace captured", name)
		}
		iter[name] = res.IterTime.ToSeconds()
		return res
	}

	ddp := runTraced("ddp", Config{Strategy: DDP})
	if ddp.Trace.Summarize(0).PerKind[trace.NCCLAllReduce] == 0 {
		t.Error("DDP trace missing all-reduce spans")
	}
	meg := runTraced("meg", Config{Strategy: Megatron})
	megSum := meg.Trace.Summarize(0)
	ddpSum := ddp.Trace.Summarize(0)
	if megSum.PerKind[trace.NCCLAllReduce] <= ddpSum.PerKind[trace.NCCLAllReduce] {
		t.Error("Megatron should spend more time in all-reduce than DDP")
	}
	z3 := runTraced("z3", Config{Strategy: ZeRO3})
	if z3.Trace.Summarize(0).PerKind[trace.NCCLAllGather] == 0 {
		t.Error("ZeRO-3 trace missing all-gather spans")
	}
	z2off := runTraced("z2off", Config{Strategy: ZeRO2, Offload: memory.CPUOffload})
	s := z2off.Trace.Summarize(0)
	if s.PerKind[trace.CPUAdam] == 0 || s.GPUIdle == 0 {
		t.Error("CPU offload trace should show CPUAdam with idle GPUs")
	}
	runTraced("z2", Config{Strategy: ZeRO2})

	// Fig 5's qualitative ordering at the small model: Megatron-LM and
	// ZeRO-3 iterate slower than DDP/ZeRO-2; offloading is slowest by far
	// ("should only be used for larger models that cannot fit without it").
	if !(iter["meg"] > iter["ddp"] && iter["z3"] > iter["z2"] && iter["z3"] > iter["ddp"]) {
		t.Errorf("Fig 5 iteration ordering violated: %v", iter)
	}
	if iter["z2off"] < 1.5*iter["z2"] {
		t.Errorf("CPU offload at 1.4B should cost far more than ZeRO-2: %v", iter)
	}
	// And the render should produce non-empty lanes.
	if lane := z2off.Trace.Render(0, 80); lane == "" {
		t.Error("empty timeline lane")
	}
}

// TestNVMeOffloadTraceShowsIdleGPUs: the eighth/ninth Fig 5 timelines.
func TestNVMeOffloadTraceShowsIdleGPUs(t *testing.T) {
	cfg := Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: maxFit(Config{Strategy: DDP}), Trace: true}
	res := quickRun(t, cfg)
	s := res.Trace.Summarize(0)
	if s.PerKind[trace.NVMeIO] == 0 {
		t.Fatal("no NVMe spans in ZeRO-Infinity trace")
	}
	if float64(s.GPUIdle) < 0.5*float64(s.Total) {
		t.Errorf("GPU idle = %v of %v; paper shows GPUs mostly idle during NVMe staging", s.GPUIdle, s.Total)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{Strategy: ZeRO3, Model: model.NewGPT(4)}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []Config{
		{Strategy: DDP, Offload: memory.CPUOffload, Model: model.NewGPT(4)},
		{Strategy: Megatron, Offload: memory.NVMeOptimizer, Model: model.NewGPT(4)},
		{Strategy: ZeRO1, Offload: memory.NVMeOptimizer, Model: model.NewGPT(4)},
		{Strategy: ZeRO2, Offload: memory.NVMeOptimizerAndParams, Model: model.NewGPT(4)},
		{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Nodes: 2, Model: model.NewGPT(4)},
		{Strategy: DDP, Nodes: MaxNodes + 1, Model: model.NewGPT(4)},
		{Strategy: DDP, Model: model.GPT{}},
		{Strategy: Strategy(42), Model: model.NewGPT(4)},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestRunRejectsOversizedModel(t *testing.T) {
	_, err := Run(Config{Strategy: DDP, Model: model.NewGPT(100)})
	if err == nil {
		t.Error("oversized DDP model accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{DDP, Megatron, ZeRO1, ZeRO2, ZeRO3, Strategy(9)} {
		if s.String() == "" {
			t.Errorf("strategy %d renders empty", int(s))
		}
	}
	if ZeRO2.ZeROStage() != 2 || DDP.ZeROStage() != 0 {
		t.Error("ZeROStage wrong")
	}
	cfg := Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer, Model: model.NewGPT(4)}
	if cfg.Name() == "" {
		t.Error("empty config name")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{Strategy: ZeRO2, Model: model.NewGPT(20)}
	a := quickRun(t, cfg)
	b := quickRun(t, cfg)
	if a.IterTime != b.IterTime {
		t.Errorf("nondeterministic iteration time: %v vs %v", a.IterTime, b.IterTime)
	}
	if a.AttainedTFLOPs != b.AttainedTFLOPs {
		t.Errorf("nondeterministic throughput: %v vs %v", a.AttainedTFLOPs, b.AttainedTFLOPs)
	}
}

func TestBucketsAndGroupsPartition(t *testing.T) {
	for _, l := range []int{1, 7, 8, 100, 659} {
		total := 0
		for _, k := range buckets(l) {
			total += k
		}
		if total != l {
			t.Errorf("buckets(%d) sums to %d", l, total)
		}
		total = 0
		for _, k := range groups(l) {
			total += k
		}
		if total != l {
			t.Errorf("groups(%d) sums to %d", l, total)
		}
	}
	if len(buckets(1000)) > maxCommBuckets {
		t.Error("bucket count exceeds cap")
	}
}

// TestBatchStagingBytes pins the dataloader's host→GPU staging: on one DDP
// node every rank stages its micro-batch's int32 input ids and shifted
// labels, 2 × 16 sequences × 256 tokens × 4 bytes.
func TestBatchStagingBytes(t *testing.T) {
	r, err := newRunner(Config{Strategy: DDP, Model: model.NewGPT(8)})
	if err != nil {
		t.Fatal(err)
	}
	flows := r.stageBatchFlowsFn()()
	if len(flows) != 4 {
		t.Fatalf("staged %d flows, want one per GPU (4)", len(flows))
	}
	for _, f := range flows {
		if f.Bytes != 2*16*256*4 {
			t.Errorf("%s stages %v bytes, want 32768", f.Name, f.Bytes)
		}
	}
}
