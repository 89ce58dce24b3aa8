// Package model describes the GPT-2-like transformer the paper trains and
// the analytical laws that govern it: parameter counts, per-iteration FLOPs,
// activation footprints and per-layer tensor shapes. The paper's model is
// fixed at 16 attention heads, hidden size 2048, sequence length 256 and 1024
// maximum position embeddings; the layer count is varied to change the model
// size (Section III-B2).
package model

import "fmt"

// Paper-fixed architecture hyperparameters (Section III-B2).
const (
	DefaultHidden    = 2048
	DefaultHeads     = 16
	DefaultSeqLen    = 256
	DefaultMaxPos    = 1024
	DefaultVocab     = 50257 // GPT-2 BPE vocabulary
	DefaultBatchSize = 16    // per-GPU micro-batch used everywhere in the paper
)

// Bytes per element in mixed-precision (FP16) training.
const (
	FP16Bytes = 2
	FP32Bytes = 4
)

// GPT is a GPT-2-like decoder-only transformer configuration.
type GPT struct {
	Layers int
	Hidden int
	Heads  int
	SeqLen int
	MaxPos int
	Vocab  int
}

// NewGPT returns the paper's architecture with the given layer count.
func NewGPT(layers int) GPT {
	return GPT{
		Layers: layers,
		Hidden: DefaultHidden,
		Heads:  DefaultHeads,
		SeqLen: DefaultSeqLen,
		MaxPos: DefaultMaxPos,
		Vocab:  DefaultVocab,
	}
}

// Validate reports configuration errors.
func (g GPT) Validate() error {
	switch {
	case g.Layers <= 0:
		return fmt.Errorf("model: layers must be positive, got %d", g.Layers)
	case g.Hidden <= 0 || g.Heads <= 0 || g.SeqLen <= 0 || g.Vocab <= 0:
		return fmt.Errorf("model: non-positive dimension in %+v", g)
	case g.Hidden%g.Heads != 0:
		return fmt.Errorf("model: hidden %d not divisible by heads %d", g.Hidden, g.Heads)
	}
	return nil
}

// LayerParams returns parameters in one transformer layer: QKV projection
// (3h²+3h), attention output (h²+h), two MLP matrices (8h²+5h) and two
// LayerNorms (4h) — the standard 12h²+13h GPT-2 census.
func (g GPT) LayerParams() int64 {
	h := int64(g.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns token + position embedding parameters plus the
// final LayerNorm. The output projection is tied to the token embedding.
func (g GPT) EmbeddingParams() int64 {
	h := int64(g.Hidden)
	return int64(g.Vocab)*h + int64(g.MaxPos)*h + 2*h
}

// Params returns the total parameter count — the number DeepSpeed reports
// and the paper quotes as "model size".
func (g GPT) Params() int64 {
	return int64(g.Layers)*g.LayerParams() + g.EmbeddingParams()
}

// ParamsB returns the total in billions, the paper's display unit.
func (g GPT) ParamsB() float64 { return float64(g.Params()) / 1e9 }

// LayersForParams returns the smallest layer count whose total parameter
// count reaches target, inverting Params. It is how the paper "varies the
// number of layers until it reaches the maximum size".
func LayersForParams(target int64) int {
	g := NewGPT(1)
	rem := target - g.EmbeddingParams()
	if rem <= 0 {
		return 1
	}
	per := g.LayerParams()
	layers := rem / per
	if rem%per != 0 {
		layers++ // round up without overflowing near the int64 limit
	}
	return int(layers)
}

// TokensPerIteration returns the tokens processed per training iteration for
// the given data-parallel width (per-GPU batch × sequence × replicas).
func (g GPT) TokensPerIteration(batchPerGPU, dataParallel int) int64 {
	return int64(batchPerGPU) * int64(g.SeqLen) * int64(dataParallel)
}

func (g GPT) String() string {
	return fmt.Sprintf("GPT-2-like{L=%d h=%d a=%d s=%d, %.2fB params}",
		g.Layers, g.Hidden, g.Heads, g.SeqLen, g.ParamsB())
}
