package compute

import (
	"testing"
	"testing/quick"

	"llmbw/internal/model"
	"llmbw/internal/sim"
)

func TestEfficiencyCurveShape(t *testing.T) {
	g := DefaultGPU()
	if e := g.Efficiency(0); e != 0 {
		t.Errorf("eff(0) = %v, want 0", e)
	}
	small, large := g.Efficiency(1e9), g.Efficiency(1e13)
	if small >= large {
		t.Errorf("efficiency not increasing: %v >= %v", small, large)
	}
	if large > g.MaxEff {
		t.Errorf("eff %v exceeds max %v", large, g.MaxEff)
	}
	// Full forward layer at the paper's shapes should land near 0.38.
	layer := model.NewGPT(1).LayerForwardFLOPs(16)
	if e := g.Efficiency(layer); e < 0.3 || e > 0.45 {
		t.Errorf("layer efficiency = %v, want ~0.38", e)
	}
}

func TestTensorParallelSlicesLessEfficient(t *testing.T) {
	g := DefaultGPU()
	layer := model.NewGPT(1).LayerForwardFLOPs(16)
	full := g.Efficiency(layer)
	slice := g.Efficiency(layer / 8)
	if slice >= full*0.8 {
		t.Errorf("TP=8 slice eff %v not much below full %v — Megatron penalty missing", slice, full)
	}
}

func TestKernelTimeScalesWithFlops(t *testing.T) {
	g := DefaultGPU()
	t1 := g.KernelTime(1e12)
	t2 := g.KernelTime(2e12)
	if t2 <= t1 {
		t.Errorf("kernel time not increasing: %v <= %v", t1, t2)
	}
	if g.KernelTime(0) != g.LaunchOverhead {
		t.Error("zero-flop kernel should cost only launch overhead")
	}
}

func TestKernelTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative flops did not panic")
		}
	}()
	DefaultGPU().KernelTime(-1)
}

// The single-GPU attained throughput for a full DDP-style iteration should
// land in the paper's ballpark: 1.4 B model → ≈ 110 TFLOP/s per GPU.
func TestAttainedThroughputCalibration(t *testing.T) {
	g := DefaultGPU()
	gpt := model.NewGPT(25) // the DDP max-fit model
	fwd := float64(gpt.Layers)*gpt.LayerForwardFLOPs(16) + gpt.HeadForwardFLOPs(16)
	iterFlops := 3 * fwd
	var total sim.Time
	for i := 0; i < gpt.Layers; i++ {
		total += g.KernelTime(gpt.LayerForwardFLOPs(16))
		total += g.KernelTime(2 * gpt.LayerForwardFLOPs(16))
	}
	total += g.KernelTime(gpt.HeadForwardFLOPs(16))
	total += g.KernelTime(2 * gpt.HeadForwardFLOPs(16))
	total += g.AdamTime(gpt.Params())
	attained := iterFlops / total.ToSeconds() / 1e12
	if attained < 95 || attained > 130 {
		t.Errorf("attained = %.1f TFLOP/s per GPU, want ~110 (paper: 438/4)", attained)
	}
}

func TestGPUAdamIsMemoryBound(t *testing.T) {
	g := DefaultGPU()
	d := g.AdamTime(1.4e9)
	// 1.4e9 × 40 B / 1.55e12 B/s ≈ 36 ms.
	if d < 30*sim.Millisecond || d > 45*sim.Millisecond {
		t.Errorf("GPU Adam for 1.4B = %v, want ~36ms", d)
	}
	if g.AdamTime(0) != 0 {
		t.Error("zero params should cost nothing")
	}
}

func TestCPUAdamMuchSlowerThanGPU(t *testing.T) {
	c := DefaultCPU()
	g := DefaultGPU()
	cpu := c.AdamTime(1.4e9, 2)
	gpu := g.AdamTime(1.4e9)
	if cpu < 10*gpu {
		t.Errorf("CPU Adam (%v) should be far slower than GPU (%v)", cpu, gpu)
	}
}

func TestCPUAdamSharingSlowsDown(t *testing.T) {
	c := DefaultCPU()
	one := c.AdamTime(1e9, 1)
	two := c.AdamTime(1e9, 2)
	if diff := two - 2*one; diff < -2 || diff > 2 {
		t.Errorf("2 ranks per socket should halve throughput: %v vs %v", two, one)
	}
	if c.AdamTime(1e9, 0) != one {
		t.Error("ranksPerSocket<1 should clamp to 1")
	}
}

func TestAdamDRAMTraffic(t *testing.T) {
	if AdamDRAMTraffic(1e9) != 44e9 {
		t.Errorf("traffic = %v, want 44e9", AdamDRAMTraffic(1e9))
	}
}

// Property: KernelTime is monotone non-decreasing in FLOPs.
func TestKernelTimeMonotoneProperty(t *testing.T) {
	g := DefaultGPU()
	f := func(a, b uint32) bool {
		fa, fb := float64(a)*1e6, float64(b)*1e6
		if fa > fb {
			fa, fb = fb, fa
		}
		return g.KernelTime(fa) <= g.KernelTime(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
