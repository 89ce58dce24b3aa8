package model

// FLOPs accounting. The paper measures attained TFLOP/s with the DeepSpeed
// FLOPS profiler, which counts the model's algorithmic FLOPs per iteration
// and divides by wall time. We use the standard transformer census:
// 2·P FLOPs per token for a forward pass through P matmul parameters, twice
// that for backward, plus the quadratic attention term.

// LayerForwardFLOPs returns forward FLOPs for one transformer layer over a
// micro-batch of b sequences: the four GEMMs (2·12h² per token) plus
// attention score/context matmuls (2·2·s²·h per sequence... per head folded
// into h).
func (g GPT) LayerForwardFLOPs(batch int) float64 {
	h := float64(g.Hidden)
	s := float64(g.SeqLen)
	b := float64(batch)
	gemm := 2 * 12 * h * h * s * b // weight GEMMs
	attn := 2 * 2 * s * s * h * b  // QK^T and attn·V
	return gemm + attn
}

// HeadForwardFLOPs returns forward FLOPs of the output projection to the
// vocabulary (tied embedding GEMM), which is significant for small layer
// counts.
func (g GPT) HeadForwardFLOPs(batch int) float64 {
	return 2 * float64(g.Hidden) * float64(g.Vocab) * float64(g.SeqLen) * float64(batch)
}

// IterationFLOPs returns total algorithmic FLOPs for one iteration across
// dataParallel replicas: per-replica forward+backward over all layers plus
// the LM head. Activation recomputation adds one extra forward when enabled,
// matching how the DeepSpeed profiler attributes recompute FLOPs to the
// model.
func (g GPT) IterationFLOPs(batchPerGPU, dataParallel int, recompute bool) float64 {
	layers := float64(g.Layers)
	fwd := layers*g.LayerForwardFLOPs(batchPerGPU) + g.HeadForwardFLOPs(batchPerGPU)
	bwd := 2 * fwd
	total := fwd + bwd
	if recompute {
		total += fwd
	}
	return total * float64(dataParallel)
}

// ActivationBytesPerLayer returns the FP16 activation footprint of one layer
// for a micro-batch, without checkpointing: the standard
// s·b·h·(34 + 5·a·s/h) bytes estimate (Korthikanti et al.), which the paper's
// platform uses since it predates FlashAttention.
func (g GPT) ActivationBytesPerLayer(batch int) float64 {
	h := float64(g.Hidden)
	s := float64(g.SeqLen)
	b := float64(batch)
	a := float64(g.Heads)
	return s * b * h * (34 + 5*a*s/h)
}

// CheckpointBytesPerLayer returns the per-layer activation footprint with
// activation checkpointing: only the layer input (s·b·h FP16) is retained.
func (g GPT) CheckpointBytesPerLayer(batch int) float64 {
	return float64(g.SeqLen) * float64(batch) * float64(g.Hidden) * FP16Bytes
}

// EmbeddingActivationBytes returns the activation cost of the embedding and
// LM-head region: input/output hidden states plus the vocabulary logits,
// which at GPT-2's 50k vocabulary dominate small models.
func (g GPT) EmbeddingActivationBytes(batch int) float64 {
	s := float64(g.SeqLen)
	b := float64(batch)
	return s*b*float64(g.Hidden)*2*FP16Bytes + s*b*float64(g.Vocab)*(FP16Bytes+FP32Bytes)
}
