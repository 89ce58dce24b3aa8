// Package llmbw's top-level benchmark harness: one benchmark per table and
// figure of the paper. Each benchmark regenerates the corresponding result
// on the simulated cluster and reports the key quantity as a custom metric
// so `go test -bench=.` reproduces the paper's evaluation end to end.
//
// Absolute wall-clock numbers measure the simulator, not the hardware; the
// custom metrics (TFLOP/s, GB, GB/s) are the reproduced results. Run
// `go run ./cmd/bwchar all` for the full side-by-side tables.
package llmbw

import (
	"bytes"
	"fmt"
	"testing"

	"llmbw/internal/collective"
	"llmbw/internal/core"
	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/sim"
	"llmbw/internal/stress"
	"llmbw/internal/topology"
	"llmbw/internal/train"
)

// benchOpts keeps per-iteration simulation cost bounded.
var benchOpts = core.Options{Iterations: 2, Warmup: 1, PatternSeconds: 10, StressSeconds: 5}

// benchExperiment regenerates one experiment per benchmark iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(&buf, benchOpts); err != nil {
			b.Fatal(err)
		}
		if buf.Len() == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkFig1ModelTrend(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2Topology(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkFig3RoceLatency(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4StressBandwidth(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5Timelines(b *testing.B)         { benchExperiment(b, "fig5") }
func BenchmarkFig6ModelSize(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7Throughput(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8Tradeoff(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9NVLinkPattern(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10DualNodePatterns(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Consolidation(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12OffloadPatterns(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13LargestModel(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14NvmeConfigs(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkTable1Capability(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkTable2Setup(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkTable3Bandwidths(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable5Sensitivity(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkTable6NvmePlacement(b *testing.B)   { benchExperiment(b, "table6") }

// BenchmarkTable4BandwidthUtilization regenerates the paper's central table
// and reports headline per-class averages of the ZeRO-3 dual-node row.
func BenchmarkTable4BandwidthUtilization(b *testing.B) {
	var res *train.Result
	for i := 0; i < b.N; i++ {
		cfg := train.Config{Strategy: train.ZeRO3, Nodes: 2, Iterations: 2, Warmup: 1}
		cfg.Model = model.NewGPT(cfg.Profile().MaxLayers(model.DefaultBatchSize, 4))
		var err error
		res, err = train.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Stats[fabric.NVLink].Avg/1e9, "NVLink-GB/s")
	b.ReportMetric(res.Stats[fabric.RoCE].Avg/1e9, "RoCE-GB/s")
	b.ReportMetric(res.Stats[fabric.XGMI].Avg/1e9, "xGMI-GB/s")
	// Full 17-row table:
	benchExperiment(b, "table4")
}

// ---- headline-metric benchmarks: the numbers the abstract quotes ----

func benchTrainMetric(b *testing.B, cfg train.Config) {
	var res *train.Result
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Iterations = 2
		c.Warmup = 1
		if c.Model.Layers == 0 {
			c.Model = model.NewGPT(c.Profile().MaxLayers(model.DefaultBatchSize, 4))
		}
		var err error
		res, err = train.Run(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AttainedTFLOPs, "TFLOP/s")
	b.ReportMetric(res.Config.Model.ParamsB(), "Bparams")
	b.ReportMetric(res.IterTime.ToSeconds()*1000, "ms/iter")
}

func BenchmarkTrainDDPSingleNode(b *testing.B) {
	benchTrainMetric(b, train.Config{Strategy: train.DDP, Nodes: 1})
}

func BenchmarkTrainMegatronDualNode(b *testing.B) {
	benchTrainMetric(b, train.Config{Strategy: train.Megatron, Nodes: 2})
}

func BenchmarkTrainZeRO3DualNode(b *testing.B) {
	benchTrainMetric(b, train.Config{Strategy: train.ZeRO3, Nodes: 2})
}

func BenchmarkTrainZeRO2CPUOffload(b *testing.B) {
	benchTrainMetric(b, train.Config{Strategy: train.ZeRO2, Offload: memory.CPUOffload})
}

func BenchmarkTrainZeROInfinity2xNVMe(b *testing.B) {
	benchTrainMetric(b, train.Config{Strategy: train.ZeRO3, Offload: memory.NVMeOptimizer})
}

// ---- substrate micro-benchmarks ----

// BenchmarkSimEngineEvents measures raw event throughput of the
// discrete-event core.
func BenchmarkSimEngineEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 10000 {
				eng.Schedule(1, tick)
			}
		}
		eng.Schedule(1, tick)
		eng.Run()
	}
}

// BenchmarkFabricFairShare measures the max-min fair-share recomputation
// under churn: 64 flows over 8 shared links.
func BenchmarkFabricFairShare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		net := fabric.NewNetwork(eng)
		links := make([]*fabric.Link, 8)
		for j := range links {
			links[j] = fabric.NewLink("l", fabric.NVLink, 0, 10e9, 0)
		}
		for j := 0; j < 64; j++ {
			path := []*fabric.Link{links[j%8], links[(j+3)%8]}
			net.StartFlow(&fabric.Flow{Path: path, Bytes: 1e8 * float64(1+j%5)}, nil)
		}
		eng.Run()
	}
}

// BenchmarkFabricFairShareSteady measures steady-state resharing: 64
// long-lived flows over 8 shared links complete and restart continuously, so
// every completion re-runs component-wise progressive filling with all
// scratch state warm. This is the path every simulated second of every
// experiment exercises thousands of times; it must not allocate.
func BenchmarkFabricFairShareSteady(b *testing.B) {
	eng := sim.New()
	net := fabric.NewNetwork(eng)
	links := make([]*fabric.Link, 8)
	for j := range links {
		links[j] = fabric.NewLink("l", fabric.NVLink, 0, 10e9, 0)
	}
	flows := make([]*fabric.Flow, 64)
	restart := make([]func(), 64)
	for j := range flows {
		j := j
		// ~0.6 GB/s fair share per flow: each flow completes roughly every
		// millisecond and immediately restarts itself.
		flows[j] = &fabric.Flow{
			Path:  []*fabric.Link{links[j%8], links[(j+3)%8]},
			Bytes: 6e5 + 1e4*float64(j%5),
		}
		restart[j] = func() { net.StartFlow(flows[j], restart[j]) }
	}
	for j := range flows {
		net.StartFlow(flows[j], restart[j])
	}
	// Warm up scratch buffers, the event heap and telemetry windows.
	end := eng.RunUntil(eng.Now() + 100*sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += 10 * sim.Millisecond
		eng.RunUntil(end)
	}
}

// BenchmarkFabricFairShareWide measures resharing beside a wide registry: N
// long-lived flows hold private links, and each op admits a same-instant
// burst of 64 single-link flows, one StartFlow at a time. Two bursts
// alternate, each admitted as the other is half done, so an op runs until
// the previous burst completes. Every admission recomputes a one-flow
// component and re-arms the network's completion timer; only the op's
// single time advance walks the N idle flows. It must not allocate.
func BenchmarkFabricFairShareWide(b *testing.B) {
	for _, n := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) { benchFairShareWide(b, n) })
	}
}

func benchFairShareWide(b *testing.B, n int) {
	const window = sim.Time(1) << 60 // telemetry buckets must not grow with virtual time
	eng := sim.New()
	net := fabric.NewNetwork(eng)
	private := func(name string) []*fabric.Link {
		return []*fabric.Link{fabric.NewLink(name, fabric.RoCE, 0, 10e9, window)}
	}
	for i := 0; i < n; i++ {
		net.StartFlow(&fabric.Flow{Path: private("long"), Bytes: 1e18}, nil)
	}
	var bursts [2][]*fabric.Flow
	for k := range bursts {
		bursts[k] = make([]*fabric.Flow, 64)
		for i := range bursts[k] {
			bursts[k][i] = &fabric.Flow{Path: private("burst"), Bytes: 1e6} // 0.1 ms at 10 GB/s
		}
	}
	left := 0
	done := func() {
		if left--; left == 0 {
			eng.Stop()
		}
	}
	admit := func(burst []*fabric.Flow) {
		for _, f := range burst {
			net.StartFlow(f, done)
		}
	}
	op := func(i int) {
		admit(bursts[i%2])
		left = len(bursts[i%2])
		eng.Run() // until the other burst completes
	}
	admit(bursts[1])
	eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	for i := 0; i < 4; i++ {
		op(i) // warm up registries, scratch lists and the event heap
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkCollectiveAllReduce measures an 8-rank dual-node ring all-reduce
// of 1 GB through the fluid-flow fabric.
func BenchmarkCollectiveAllReduce(b *testing.B) {
	b.ReportAllocs()
	var dur sim.Time
	for i := 0; i < b.N; i++ {
		c := topology.New(topology.DefaultConfig(2))
		g := collective.NewGroup(c, collective.NodeMajorRanks(2, 4))
		g.Start(collective.AllReduce, 1e9, func() {})
		dur = c.Eng.Run()
	}
	b.ReportMetric(dur.ToSeconds()*1000, "simulated-ms")
}

// BenchmarkCollectiveReplaySteady is the repeated-collective
// macro-benchmark: one cluster, one group, the same 8-rank dual-node
// all-reduce issued back to back — the steady state every training iteration
// lives in. The shape's plan is compiled once and replayed with zero
// allocations per issue; BENCH_collective.json records it.
func BenchmarkCollectiveReplaySteady(b *testing.B) {
	cfg := topology.DefaultConfig(2)
	cfg.Window = sim.Time(1) << 60 // telemetry buckets must not grow with virtual time
	c := topology.New(cfg)
	g := collective.NewGroup(c, collective.NodeMajorRanks(2, 4))
	remaining := 0
	var restart func()
	restart = func() {
		remaining--
		if remaining > 0 {
			g.Start(collective.AllReduce, 1e9, restart)
		}
	}
	// Warm up: compile the plan, grow the fabric registries and event heap.
	remaining = 3
	g.Start(collective.AllReduce, 1e9, restart)
	c.Eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	remaining = b.N
	g.Start(collective.AllReduce, 1e9, restart)
	c.Eng.Run()
}

// BenchmarkStressGPURoCE measures the Fig 4 GPUDirect stress scenario.
func BenchmarkStressGPURoCE(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res := stress.GPURoCEStress(false, 5*sim.Second)
		frac = res.AttainedFraction(fabric.RoCE)
	}
	b.ReportMetric(frac*100, "%-of-theoretical")
}

// ---- ablation and what-if benchmarks (DESIGN.md's design-choice studies) ----

func BenchmarkAblationXbarContention(b *testing.B)  { benchExperiment(b, "ext-xbar") }
func BenchmarkAblationCheckpointing(b *testing.B)   { benchExperiment(b, "ext-ckpt") }
func BenchmarkWhatIfRoCEBandwidth(b *testing.B)     { benchExperiment(b, "ext-roce") }
func BenchmarkWhatIfNVMeScaling(b *testing.B)       { benchExperiment(b, "ext-nvme-scale") }
func BenchmarkWhatIfBatchSize(b *testing.B)         { benchExperiment(b, "ext-batch") }
func BenchmarkExtensionHybridParallel(b *testing.B) { benchExperiment(b, "ext-hybrid") }

// BenchmarkTrainMegatronHybridDual reports the hybrid TP=4/PP=2 dual-node
// headline, the extension's key configuration.
func BenchmarkTrainMegatronHybridDual(b *testing.B) {
	benchTrainMetric(b, train.Config{
		Strategy: train.Megatron, Nodes: 2,
		TensorParallel: 4, PipelineParallel: 2,
	})
}
