package train

import (
	"fmt"

	"llmbw/internal/memory"
)

// Runtime GPU-memory tracking. The memory package predicts footprints
// analytically (that is how achieved model sizes are searched); the runner
// additionally *accounts* allocations as the schedule executes — activations
// grow through the forward pass and drain through backward — so every run
// reports an observed peak and enforces the A100's capacity as a runtime
// invariant rather than an assumption. Transient gather/communication
// buffers live inside the strategy extras charged statically (DeepSpeed
// sizes them from fixed pools), so the dynamic part is the activations.

// memTracker follows one GPU's resident bytes (ranks are symmetric).
type memTracker struct {
	used float64
	peak float64
	name string
}

func (m *memTracker) alloc(bytes float64) {
	if bytes < 0 {
		panic("train: negative allocation")
	}
	m.used += bytes
	if m.used > m.peak {
		m.peak = m.used
	}
	if m.used > memory.GPUMemBytes {
		panic(fmt.Sprintf("train: %s out of GPU memory: %.1f GB used of %.0f",
			m.name, m.used/1e9, memory.GPUMemBytes/1e9))
	}
}

func (m *memTracker) free(bytes float64) {
	m.used -= bytes
	if m.used < -1e-3 {
		panic(fmt.Sprintf("train: %s freed more than allocated (%.3f GB below zero)", m.name, -m.used/1e9))
	}
	if m.used < 0 {
		m.used = 0
	}
}

// initMemTracker charges the static residents: model states, framework
// overhead, communication buffers and strategy extras — everything in the
// plan except the activations, which the schedule allocates live.
func (r *Runner) initMemTracker() {
	r.mem = &memTracker{name: r.cfg.Name()}
	psi := float64(r.cfg.Model.Params())
	static := r.prof.StateBytesPerGPU(r.cfg.Model.Params()) +
		memory.GPUOverheadBytes + memory.BucketBytes +
		r.prof.ExtraGPUBytes + r.prof.ExtraGPUPerParam*psi/float64(r.prof.ModelParallel)
	r.mem.alloc(static)
}

// layerActivationBytes is what one layer's forward pass leaves resident.
func (r *Runner) layerActivationBytes() float64 {
	g := r.cfg.Model
	b := r.cfg.BatchPerGPU
	mp := r.prof.ModelParallel
	if r.prof.ActivationCkpt {
		return g.CheckpointBytesPerLayer(b)
	}
	return g.ActivationBytesPerLayer(b)/float64(mp) + g.CheckpointBytesPerLayer(b)
}

// headActivationBytes is the embedding/logits working set.
func (r *Runner) headActivationBytes() float64 {
	return r.cfg.Model.EmbeddingActivationBytes(r.cfg.BatchPerGPU) / float64(r.prof.ModelParallel)
}

// recomputeWorkingSet is the transient full-activation buffer held while a
// checkpointed layer recomputes during backward.
func (r *Runner) recomputeWorkingSet() float64 {
	if !r.prof.ActivationCkpt {
		return 0
	}
	return r.cfg.Model.ActivationBytesPerLayer(r.cfg.BatchPerGPU) / float64(r.prof.ModelParallel)
}
