package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsMatchPaperSizes(t *testing.T) {
	// The paper's 1.4 B model should correspond to a plausible layer count
	// (~26 layers at h=2048), and Params must be monotone in layers.
	g := NewGPT(26)
	if b := g.ParamsB(); b < 1.3 || b > 1.5 {
		t.Errorf("26 layers = %.2fB params, want ~1.4B", b)
	}
}

func TestLayerParamsFormula(t *testing.T) {
	g := NewGPT(1)
	want := int64(12*2048*2048 + 13*2048)
	if got := g.LayerParams(); got != want {
		t.Errorf("LayerParams = %d, want %d", got, want)
	}
}

func TestEmbeddingParams(t *testing.T) {
	g := NewGPT(1)
	want := int64(50257*2048 + 1024*2048 + 2*2048)
	if got := g.EmbeddingParams(); got != want {
		t.Errorf("EmbeddingParams = %d, want %d", got, want)
	}
}

func TestLayersForParamsInverse(t *testing.T) {
	for _, layers := range []int{1, 5, 26, 100, 300, 650} {
		g := NewGPT(layers)
		got := LayersForParams(g.Params())
		if got != layers {
			t.Errorf("LayersForParams(Params(%d)) = %d", layers, got)
		}
	}
}

func TestLayersForParamsTiny(t *testing.T) {
	if got := LayersForParams(1000); got != 1 {
		t.Errorf("tiny target layers = %d, want 1", got)
	}
}

// Property: Params is strictly increasing in layer count and
// LayersForParams(p) always yields a model with at least p params.
func TestParamsMonotoneProperty(t *testing.T) {
	f := func(raw uint16) bool {
		layers := int(raw%512) + 1
		a, b := NewGPT(layers), NewGPT(layers+1)
		if b.Params() <= a.Params() {
			return false
		}
		target := a.Params() + 12345
		return NewGPT(LayersForParams(target)).Params() >= target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := NewGPT(10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []GPT{
		{Layers: 0, Hidden: 8, Heads: 2, SeqLen: 4, Vocab: 10},
		{Layers: 1, Hidden: 0, Heads: 2, SeqLen: 4, Vocab: 10},
		{Layers: 1, Hidden: 10, Heads: 3, SeqLen: 4, Vocab: 10},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTokensPerIteration(t *testing.T) {
	g := NewGPT(4)
	if got := g.TokensPerIteration(16, 4); got != 16*256*4 {
		t.Errorf("tokens = %d, want %d", got, 16*256*4)
	}
}

func TestIterationFLOPsScale(t *testing.T) {
	g := NewGPT(26) // ~1.4B params
	fl := g.IterationFLOPs(16, 4, false)
	// Rule of thumb: ~6 * P * tokens. With P=1.4e9, tokens=16384:
	// ~1.4e14. Allow the attention and head corrections some slack.
	want := 6 * float64(g.Params()) * 16384
	if ratio := fl / want; ratio < 0.85 || ratio > 1.3 {
		t.Errorf("IterationFLOPs = %.3g, %0.2fx of 6·P·T rule", fl, ratio)
	}
}

func TestRecomputeAddsOneForward(t *testing.T) {
	g := NewGPT(10)
	base := g.IterationFLOPs(16, 1, false)
	rec := g.IterationFLOPs(16, 1, true)
	// base = fwd + 2*fwd = 3 fwd; rec = 4 fwd.
	if ratio := rec / base; math.Abs(ratio-4.0/3.0) > 1e-9 {
		t.Errorf("recompute ratio = %v, want 4/3", ratio)
	}
}

// TestBackwardIsTwiceForward pins the FLOPs census: an iteration without
// recomputation counts the forward pass (every layer plus the LM head) and
// a backward pass of twice its FLOPs.
func TestBackwardIsTwiceForward(t *testing.T) {
	g := NewGPT(3)
	fwd := 3*g.LayerForwardFLOPs(8) + g.HeadForwardFLOPs(8)
	if got := g.IterationFLOPs(8, 1, false); got != fwd+2*fwd {
		t.Errorf("iteration FLOPs = %v, want forward %v plus twice that", got, fwd)
	}
}

func TestActivationBytes(t *testing.T) {
	g := NewGPT(1)
	full := g.ActivationBytesPerLayer(16)
	ckpt := g.CheckpointBytesPerLayer(16)
	if ckpt >= full {
		t.Errorf("checkpointed (%.3g) should be far below full (%.3g)", ckpt, full)
	}
	// Full activations for s=256,b=16,h=2048,a=16: s·b·h·(34+5·16·256/2048)
	// = 8.39e6 · 44 ≈ 3.7e8.
	want := 256.0 * 16 * 2048 * (34 + 5*16*256/2048.0)
	if math.Abs(full-want) > 1 {
		t.Errorf("full act = %v, want %v", full, want)
	}
}

func TestEmbeddingActivationDominatedByVocab(t *testing.T) {
	g := NewGPT(1)
	e := g.EmbeddingActivationBytes(16)
	logits := 256.0 * 16 * 50257 * 6
	if e < logits {
		t.Errorf("embedding activations %.3g below logits term %.3g", e, logits)
	}
}

func TestStringRendering(t *testing.T) {
	s := NewGPT(26).String()
	if s == "" {
		t.Error("empty String()")
	}
}
