package train

import (
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/model"
)

// hybridRun executes a short hybrid Megatron run.
func hybridRun(t *testing.T, nodes, tp, pp int, g model.GPT) *Result {
	t.Helper()
	cfg := Config{
		Strategy: Megatron, Nodes: nodes,
		TensorParallel: tp, PipelineParallel: pp,
		Model: g, Iterations: 2, Warmup: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("hybrid TP=%d PP=%d: %v", tp, pp, err)
	}
	return res
}

// TestHybridBeatsPureTPAcrossNodes demonstrates the deployment rule the
// Megatron-LM papers give and the paper's data implies: across two nodes,
// TP-within-node + PP-across-nodes beats pure TP=8, because only the slim
// point-to-point activation sends cross RoCE instead of every layer's
// all-reduces.
func TestHybridBeatsPureTPAcrossNodes(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(10e9))
	pure := hybridRun(t, 2, 8, 1, g)
	hybrid := hybridRun(t, 2, 4, 2, g)
	if hybrid.AttainedTFLOPs <= pure.AttainedTFLOPs {
		t.Errorf("TP=4/PP=2 (%.0f TFLOP/s) should beat pure TP=8 (%.0f) across nodes",
			hybrid.AttainedTFLOPs, pure.AttainedTFLOPs)
	}
	// And its RoCE traffic should be far lower.
	if hybrid.Stats[fabric.RoCE].Avg >= pure.Stats[fabric.RoCE].Avg {
		t.Errorf("hybrid RoCE avg (%.1f) should be below pure TP (%.1f)",
			hybrid.Stats[fabric.RoCE].Avg/1e9, pure.Stats[fabric.RoCE].Avg/1e9)
	}
}

// TestPipelineBubbleCostsThroughput: on a single node (where TP is cheap over
// NVLink), adding pipeline stages introduces fill/drain bubbles.
func TestPipelineBubbleCostsThroughput(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(5e9))
	pure := hybridRun(t, 1, 4, 1, g)
	pp4 := hybridRun(t, 1, 1, 4, g)
	if pp4.AttainedTFLOPs >= pure.AttainedTFLOPs*1.2 {
		t.Errorf("PP=4 (%.0f) should not dramatically beat TP=4 (%.0f) on one node",
			pp4.AttainedTFLOPs, pure.AttainedTFLOPs)
	}
	if pp4.IterTime <= 0 || pure.IterTime <= 0 {
		t.Fatal("degenerate iteration times")
	}
}

// TestHybridEquivalentToPureWhenPP1: the hybrid path with PP=1 and the pure
// path produce identical schedules.
func TestHybridEquivalentToPureWhenPP1(t *testing.T) {
	g := model.NewGPT(40)
	pure, err := Run(Config{Strategy: Megatron, Model: g, Iterations: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// PP=1 compiles through compileMegatron (the dispatcher checks PP>1), so
	// this asserts the dispatcher wiring rather than numerical coincidence.
	viaFields, err := Run(Config{Strategy: Megatron, TensorParallel: 4, PipelineParallel: 1,
		Model: g, Iterations: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pure.IterTime != viaFields.IterTime {
		t.Errorf("PP=1 hybrid config diverged from pure Megatron: %v vs %v",
			viaFields.IterTime, pure.IterTime)
	}
}

func TestHybridValidation(t *testing.T) {
	g := model.NewGPT(16)
	bad := []Config{
		{Strategy: Megatron, TensorParallel: 3, PipelineParallel: 1, Model: g},
		{Strategy: Megatron, TensorParallel: 2, PipelineParallel: 4, Model: g},
		{Strategy: DDP, TensorParallel: 2, PipelineParallel: 2, Model: g},
		{Strategy: Megatron, TensorParallel: 1, PipelineParallel: 4, Model: model.NewGPT(2)},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad hybrid config %d accepted: %+v", i, c)
		}
	}
	good := Config{Strategy: Megatron, TensorParallel: 2, PipelineParallel: 2, Model: g}
	if err := good.Validate(); err != nil {
		t.Errorf("valid hybrid config rejected: %v", err)
	}
	if name := good.Name(); name != "Megatron-LM (TP=2,PP=2)" {
		t.Errorf("hybrid name = %q", name)
	}
}

// TestHybridStageBoundariesCrossNodesOnlyBetweenStages: TP=4/PP=2 on two
// nodes must keep all-reduce traffic off RoCE entirely for a 1-stage-per-node
// mapping; only the boundary sends cross.
func TestHybridTrafficLocality(t *testing.T) {
	g := model.NewGPT(model.LayersForParams(8e9))
	res := hybridRun(t, 2, 4, 2, g)
	nv := res.Stats[fabric.NVLink].Avg
	roce := res.Stats[fabric.RoCE].Avg
	if nv == 0 {
		t.Fatal("no NVLink traffic in hybrid run")
	}
	if roce == 0 {
		t.Fatal("pipeline boundary produced no RoCE traffic")
	}
	if roce > nv/3 {
		t.Errorf("RoCE (%.1f GB/s) should be a small fraction of NVLink (%.1f)", roce/1e9, nv/1e9)
	}
}
