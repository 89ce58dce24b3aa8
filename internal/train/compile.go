package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/memory"
	"llmbw/internal/scenario"
	"llmbw/internal/sched"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
	"llmbw/internal/trace"
)

// This file is the schedule compiler: each strategy's training iteration
// expressed as a one-time lowering into the internal/schedule op vocabulary.
// Every operand is precomputed at compile time, so the executor replays the
// same event sequence every iteration; testdata/schedule_shapes.golden pins
// the result of each strategy × offload shape.

// scheduleCache is the compiled-program tier of the warm-artifact store. A
// non-hybrid schedule is a pure function of the configuration slice keyed
// below — every op's durations come from the global GPU/CPU models and every
// operand is a precomputed number — and the executor never writes through the
// shared op list (all mutable replay state lives in the executor), so one
// compiled program serves every run and every concurrent runner of the same
// shape. Hybrid schedules embed cluster-bound groups and routes and are
// compiled per run.
var scheduleCache = scenario.New("train.schedules", 256)

// scheduleKey returns the canonical key of the compiled iteration schedule,
// or ok=false when the schedule is not shareable across runs (hybrid
// pipeline schedules bind *collective.Group and topology.Route values of one
// specific cluster into their ops).
func (r *Runner) scheduleKey() (string, bool) {
	c := r.cfg
	if c.Strategy == Megatron && c.PipelineParallel > 1 {
		return "", false
	}
	return scenario.Intern(fmt.Sprintf("sched s%d o%d n%d m%+v tp%d pp%d b%d rw%d",
		c.Strategy, c.Offload, c.Nodes, c.Model, c.TensorParallel,
		c.PipelineParallel, c.BatchPerGPU, c.Rewrite)), true
}

// iterationSchedule returns the compiled per-iteration program, fetching
// shareable shapes through the schedule cache so sweep points with the same
// strategy/model/world skip recompilation.
func (r *Runner) iterationSchedule() *schedule.Schedule {
	key, ok := r.scheduleKey()
	if !ok {
		return r.compileIteration()
	}
	v, _ := scheduleCache.Do(key, 0, func() (any, error) {
		return r.compileIteration(), nil
	})
	return v.(*schedule.Schedule)
}

// compileIteration lowers the configured strategy into its per-iteration
// schedule and applies the configured rewrite.
func (r *Runner) compileIteration() *schedule.Schedule {
	b := &schedBuilder{r: r, Builder: schedule.NewBuilder()}
	b.Phase = trace.PhaseData
	b.stage()
	switch r.cfg.Strategy {
	case DDP:
		b.compileDDP()
	case Megatron:
		if r.cfg.PipelineParallel > 1 {
			b.compileMegatronHybrid()
		} else {
			b.compileMegatron()
		}
	case ZeRO1:
		b.compileZeRO1()
	case ZeRO2:
		b.compileZeRO2()
	case ZeRO3:
		b.compileZeRO3()
	default:
		panic(fmt.Sprintf("train: unknown strategy %v", r.cfg.Strategy))
	}
	return b.S.Apply(r.cfg.Rewrite)
}

// buckets splits the layer count into communication buckets.
func buckets(layers int) []int {
	return sched.Buckets(layers, layersPerBucket, maxCommBuckets)
}

// groups splits layers into ZeRO-3 parameter prefetch groups.
func groups(layers int) []int {
	return sched.Groups(layers, zero3Groups)
}

// backwardFactor is the compute multiple of a forward pass spent in backward
// (2×), plus one recompute forward when activation checkpointing is on.
func (r *Runner) backwardFactor() float64 {
	if r.prof.ActivationCkpt {
		return 3
	}
	return 2
}

// schedBuilder layers the strategies' domain helpers (FLOP→duration
// conversion, offload/NVMe policies, chunking) over the generic schedule
// builder; emits inherit the builder's current Phase.
type schedBuilder struct {
	*schedule.Builder
	r *Runner
}

func (b *schedBuilder) stage() { b.Flows() }

func (b *schedBuilder) compute(tk trace.Kind, flops float64) {
	b.Compute(tk, b.r.gpu.KernelTime(flops))
}

func (b *schedBuilder) gpuAdam(params int64) {
	b.Compute(trace.WeightUpdate, b.r.gpu.AdamTime(params))
}

func (b *schedBuilder) overhead(d sim.Time) { b.Overhead(d) }

func (b *schedBuilder) alloc(bytes float64) { b.Alloc(bytes) }

func (b *schedBuilder) free(bytes float64) { b.Free(bytes) }

func (b *schedBuilder) sync(op collective.Op, payload, limit float64, rings int) {
	b.Sync(op, payload, limit, rings)
}

func (b *schedBuilder) syncOn(g *collective.Group, op collective.Op, payload float64) {
	b.SyncOn(g, op, payload, 0, 2)
}

func (b *schedBuilder) newQueue(limit float64, rings int) int8 { return b.NewQueue(limit, rings) }

func (b *schedBuilder) enqueue(q int8, op collective.Op, payload float64) {
	b.Enqueue(q, op, payload)
}

func (b *schedBuilder) enqueueSlot(q int8, op collective.Op, payload float64) int16 {
	return b.EnqueueSlot(q, op, payload)
}

func (b *schedBuilder) waitSlot(q int8, slot int16) { b.WaitSlot(q, slot) }

func (b *schedBuilder) barrier(q int8) { b.Barrier(q) }

func (b *schedBuilder) offload(bytesPerRank float64) {
	b.Xfer(trace.OffloadCopy, bytesPerRank)
}

func (b *schedBuilder) hostAdam(params int64) {
	d := b.r.cpu.AdamTime(params, 2)
	if d <= 0 {
		return
	}
	b.Paced(trace.CPUAdam, d, params)
}

func (b *schedBuilder) nvme(bytesPerRank float64, write bool) {
	if bytesPerRank <= 0 {
		return
	}
	b.NVMe(trace.NVMeIO, bytesPerRank, write)
}

func (b *schedBuilder) stageAllReduce(groups []*collective.Group, payload float64) {
	if len(groups) == 1 {
		b.syncOn(groups[0], collective.AllReduce, payload)
		return
	}
	b.Multi(collective.AllReduce, groups, payload, 0, 2)
}

func (b *schedBuilder) boundary(routes []topology.Route, bytes float64) {
	if len(routes) == 0 || bytes <= 0 {
		// A single-stage pipeline has no boundary to cross.
		return
	}
	b.RouteXfer(trace.OffloadCopy, routes, bytes)
}

// z1Collective expands the ZeRO-1 fused-buffer chunk loop at compile time:
// the chunk count is a pure function of the memory plan.
func (b *schedBuilder) z1Collective(op collective.Op, payload float64) {
	chunk := b.r.z1ChunkBytes()
	for payload > 0 {
		sz := payload
		if sz > chunk {
			sz = chunk
		}
		b.sync(op, sz, 0, 1)
		b.overhead(z1ChunkLatency)
		payload -= sz
	}
}

// forward lowers the forward compute shared by DDP and ZeRO-1/2,
// accumulating activation memory layer by layer.
func (b *schedBuilder) forward(mp int) {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	layerF := g.LayerForwardFLOPs(bt) / float64(mp)
	for l := 0; l < g.Layers; l++ {
		b.compute(trace.Gemm, layerF)
		b.alloc(r.layerActivationBytes())
	}
	b.compute(trace.Gemm, g.HeadForwardFLOPs(bt)/float64(mp))
	b.alloc(r.headActivationBytes())
	b.compute(trace.Elementwise, 0) // loss/softmax epilogue
}

// optimizer lowers the weight update to GPU, CPU (ZeRO-Offload) or
// NVMe-staged CPU (ZeRO-Infinity) per the configured offload mode.
func (b *schedBuilder) optimizer() {
	r := b.r
	world := int64(r.cfg.WorldSize())
	part := r.cfg.Model.Params() / world
	partBytes := r.gradBytes / float64(world)
	switch r.cfg.Offload {
	case memory.NoOffload:
		b.gpuAdam(part)
	case memory.CPUOffload:
		b.offload(partBytes) // gradients down to pinned host staging
		b.hostAdam(part)
		b.offload(partBytes) // updated FP16 params back up
	case memory.NVMeOptimizer, memory.NVMeOptimizerAndParams:
		b.offload(partBytes)            // gradients to host
		b.nvme(12*float64(part), false) // read optimizer partition
		b.hostAdam(part)
		b.nvme(12*float64(part), true) // write optimizer partition
		if r.cfg.Offload == memory.NVMeOptimizerAndParams {
			b.nvme(partBytes, true) // park updated FP16 params on NVMe
		} else {
			b.offload(partBytes) // updated FP16 params back to GPU
		}
	}
}

// compileDDP: forward, backward with per-bucket all-reduce overlapped on the
// comm stream (PyTorch DDP's gradient bucketing), then a replicated fused
// Adam step on every GPU.
func (b *schedBuilder) compileDDP() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	b.Phase = trace.PhaseForward
	b.forward(1)

	q := b.newQueue(0, 2)
	b.Phase = trace.PhaseBackward
	b.compute(trace.Gemm, 2*g.HeadForwardFLOPs(bt))
	b.free(r.headActivationBytes())
	b.alloc(r.recomputeWorkingSet())
	bk := buckets(g.Layers)
	perBucket := r.gradBytes / float64(len(bk))
	for _, k := range bk {
		b.compute(trace.Gemm, r.backwardFactor()*g.LayerForwardFLOPs(bt)*float64(k))
		b.free(float64(k) * r.layerActivationBytes())
		b.enqueue(q, collective.AllReduce, perBucket)
	}
	b.free(r.recomputeWorkingSet())
	b.barrier(q)
	b.Phase = trace.PhaseOptimizer
	b.gpuAdam(g.Params())
}

// compileMegatron: tensor-model parallelism of degree = world size, with MP
// gradient-accumulation microbatches per iteration so the global batch
// matches the data-parallel runs — visible in Fig 5 as Megatron-LM's four
// forward/backward pairs. Every layer runs its GEMMs on 1/MP of the work and
// synchronizes activations with two all-reduces in forward and two in
// backward — the communication the paper identifies as Megatron-LM's
// dual-node downfall.
func (b *schedBuilder) compileMegatron() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	mp := r.cfg.WorldSize()
	actBytes := float64(bt) * float64(g.SeqLen) * float64(g.Hidden) * 2 // FP16 activations

	layerF := g.LayerForwardFLOPs(bt) / float64(mp)
	for micro := 0; micro < mp; micro++ {
		b.Phase = trace.PhaseForward
		for l := 0; l < g.Layers; l++ {
			b.compute(trace.Gemm, layerF)
			b.alloc(r.layerActivationBytes())
			b.sync(collective.AllReduce, actBytes, 0, 2)
			b.sync(collective.AllReduce, actBytes, 0, 2)
		}
		b.compute(trace.Gemm, g.HeadForwardFLOPs(bt)/float64(mp))
		b.alloc(r.headActivationBytes())
		b.sync(collective.AllReduce, actBytes, 0, 2)

		b.Phase = trace.PhaseBackward
		for l := 0; l < g.Layers; l++ {
			b.compute(trace.Gemm, 2*layerF)
			b.free(r.layerActivationBytes())
			b.sync(collective.AllReduce, actBytes, 0, 2)
			b.sync(collective.AllReduce, actBytes, 0, 2)
		}
		b.compute(trace.Gemm, 2*g.HeadForwardFLOPs(bt)/float64(mp))
		b.free(r.headActivationBytes())
	}
	b.Phase = trace.PhaseOptimizer
	b.gpuAdam(g.Params() / int64(mp))
}

// compileZeRO1: DDP-like compute with activation checkpointing; optimizer
// states are partitioned, so the gradient synchronization becomes an exposed
// reduce-scatter + parameter all-gather at the end of the step, rate-limited
// when GPU headroom starves the fused buffers (the Table V ZeRO-1 drop).
func (b *schedBuilder) compileZeRO1() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	b.Phase = trace.PhaseForward
	b.forward(1)
	b.Phase = trace.PhaseBackward
	b.compute(trace.Gemm, 2*g.HeadForwardFLOPs(bt))
	b.free(r.headActivationBytes())
	b.alloc(r.recomputeWorkingSet())
	for _, k := range buckets(g.Layers) {
		b.compute(trace.Gemm, r.backwardFactor()*g.LayerForwardFLOPs(bt)*float64(k))
		b.free(float64(k) * r.layerActivationBytes())
	}
	b.free(r.recomputeWorkingSet())
	b.Phase = trace.PhaseOptimizer
	b.z1Collective(collective.ReduceScatter, r.gradBytes)
	b.optimizer()
	b.z1Collective(collective.AllGather, r.paramBytes)
}

// compileZeRO2: gradients are reduce-scattered per bucket, overlapped with
// the backward pass on a single node; across nodes DeepSpeed 0.7.1's overlap
// is ineffective over RoCE (the paper's Fig 10 shows distinct communication
// phases), so the reduce-scatter runs exposed after backward. The optimizer
// updates the local partition, then parameters are all-gathered.
func (b *schedBuilder) compileZeRO2() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	b.Phase = trace.PhaseForward
	b.forward(1)

	overlap := r.cfg.Nodes == 1
	q := b.newQueue(0, 1)
	b.Phase = trace.PhaseBackward
	b.compute(trace.Gemm, 2*g.HeadForwardFLOPs(bt))
	b.free(r.headActivationBytes())
	b.alloc(r.recomputeWorkingSet())
	bk := buckets(g.Layers)
	perBucket := r.gradBytes / float64(len(bk))
	for _, k := range bk {
		b.compute(trace.Gemm, r.backwardFactor()*g.LayerForwardFLOPs(bt)*float64(k))
		b.free(float64(k) * r.layerActivationBytes())
		if overlap {
			b.enqueue(q, collective.ReduceScatter, perBucket)
		}
	}
	b.free(r.recomputeWorkingSet())
	if overlap {
		b.barrier(q)
	} else {
		b.sync(collective.ReduceScatter, r.gradBytes, 0, 1)
	}
	b.Phase = trace.PhaseOptimizer
	b.optimizer()
	b.sync(collective.AllGather, r.paramBytes, 0, 1)
}

// compileZeRO3: parameters live sharded. Forward and backward gather each
// layer group's parameters just in time (prefetched one group ahead on the
// comm stream); backward additionally reduce-scatters each group's
// gradients.
func (b *schedBuilder) compileZeRO3() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	gr := groups(g.Layers)
	layerParamBytes := 2 * float64(g.LayerParams())
	embedBytes := 2 * float64(g.EmbeddingParams())
	groupBytes := func(i int) float64 {
		bytes := layerParamBytes * float64(gr[i])
		if i == 0 {
			bytes += embedBytes
		}
		return bytes
	}
	if r.cfg.Offload == memory.NVMeOptimizerAndParams {
		// Parameters start on NVMe: each rank stages its shard up before the
		// gathers can run.
		b.Phase = trace.PhasePrefetch
		b.nvme(r.paramBytes/float64(r.cfg.WorldSize()), false)
	}

	q := b.newQueue(0, 1)
	slots := make([]int16, len(gr))
	b.Phase = trace.PhasePrefetch
	slots[0] = b.enqueueSlot(q, collective.AllGather, groupBytes(0))
	for i := range gr {
		if i+1 < len(gr) {
			b.Phase = trace.PhasePrefetch
			slots[i+1] = b.enqueueSlot(q, collective.AllGather, groupBytes(i+1))
		}
		b.Phase = trace.PhaseForward
		b.waitSlot(q, slots[i])
		b.overhead(r.zero3Overhead() * sim.Time(gr[i]))
		b.compute(trace.Gemm, g.LayerForwardFLOPs(bt)*float64(gr[i]))
		b.alloc(float64(gr[i]) * r.layerActivationBytes())
	}
	b.Phase = trace.PhaseForward
	b.compute(trace.Gemm, g.HeadForwardFLOPs(bt))
	b.alloc(r.headActivationBytes())

	if r.cfg.Offload == memory.NVMeOptimizerAndParams {
		b.Phase = trace.PhasePrefetch
		b.nvme(r.paramBytes/float64(r.cfg.WorldSize()), false)
	}
	b.Phase = trace.PhaseBackward
	b.compute(trace.Gemm, 2*g.HeadForwardFLOPs(bt))
	b.free(r.headActivationBytes())
	b.alloc(r.recomputeWorkingSet())
	bq := b.newQueue(0, 1)
	bslots := make([]int16, len(gr))
	last := len(gr) - 1
	b.Phase = trace.PhasePrefetch
	bslots[last] = b.enqueueSlot(bq, collective.AllGather, groupBytes(last))
	for i := last; i >= 0; i-- {
		if i-1 >= 0 {
			b.Phase = trace.PhasePrefetch
			bslots[i-1] = b.enqueueSlot(bq, collective.AllGather, groupBytes(i-1))
		}
		b.Phase = trace.PhaseBackward
		b.waitSlot(bq, bslots[i])
		b.overhead(r.zero3Overhead() * sim.Time(gr[i]))
		b.compute(trace.Gemm, r.backwardFactor()*g.LayerForwardFLOPs(bt)*float64(gr[i]))
		b.free(float64(gr[i]) * r.layerActivationBytes())
		b.enqueue(bq, collective.ReduceScatter, groupBytes(i))
	}
	b.free(r.recomputeWorkingSet())
	b.barrier(bq)
	b.Phase = trace.PhaseOptimizer
	b.optimizer()
}

// compileMegatronHybrid lowers one iteration of TP×PP hybrid model
// parallelism (see hybrid.go).
func (b *schedBuilder) compileMegatronHybrid() {
	r := b.r
	g := r.cfg.Model
	bt := r.cfg.BatchPerGPU
	tp, pp := r.cfg.TensorParallel, r.cfg.PipelineParallel
	micro := r.cfg.WorldSize() // gradient-accumulation microbatches

	// Stage groups and boundary routes are compiled once and reused every
	// iteration (they are pure functions of the topology), which also keeps
	// their collective plan pools warm across iterations.
	stages := r.stageGroups(tp, pp)
	boundaries := r.stageBoundaryRoutes(tp, pp)
	actBytes := float64(bt) * float64(g.SeqLen) * float64(g.Hidden) * 2

	layersPerStage := (g.Layers + pp - 1) / pp
	layerF := g.LayerForwardFLOPs(bt) / float64(tp)

	slot := func(backward bool) {
		mult := 1.0
		if backward {
			mult = 2
		}
		for l := 0; l < layersPerStage; l++ {
			b.compute(trace.Gemm, mult*layerF)
			if tp > 1 {
				b.stageAllReduce(stages, actBytes)
				b.stageAllReduce(stages, actBytes)
			}
		}
		b.boundary(boundaries, actBytes*float64(tp))
	}

	actResident := float64(g.Layers)*r.layerActivationBytes() + r.headActivationBytes()
	b.Phase = trace.PhaseForward
	b.alloc(actResident)
	fwdSlots := micro + pp - 1
	for s := 0; s < fwdSlots; s++ {
		slot(false)
	}
	b.compute(trace.Gemm, 3*g.HeadForwardFLOPs(bt)/float64(tp))
	b.Phase = trace.PhaseBackward
	for s := 0; s < fwdSlots; s++ {
		slot(true)
	}
	b.free(actResident)
	b.Phase = trace.PhaseOptimizer
	b.gpuAdam(g.Params() / int64(tp*pp))
}
