package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/nvme"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
	"llmbw/internal/topology"
	"llmbw/internal/trace"
)

// Modelled DeepSpeed/NCCL scheduling constants.
const (
	// maxCommBuckets bounds how many gradient buckets overlap the backward
	// pass (NCCL stream serialization keeps them ordered).
	maxCommBuckets = 16
	// layersPerBucket groups backward layers per gradient bucket.
	layersPerBucket = 8
	// zero3Groups is the parameter prefetch granularity of ZeRO-3.
	zero3Groups = 12
	// crossStagingFrac is the fraction of offload staging traffic that
	// lands on the remote socket: DeepSpeed's pinned buffers are not
	// NUMA-aware (paper Sec V-A3 observes exactly this xGMI traffic).
	crossStagingFrac = 0.5
	// adamCrossFrac is the fraction of CPUAdam's DRAM traffic that hits
	// the neighbour socket (interleaved allocations of offloaded states).
	adamCrossFrac = 0.25
	// z1MinChunkBytes floors the fused-buffer size available to ZeRO-1's
	// end-of-step collectives when GPU memory headroom is exhausted.
	z1MinChunkBytes = 128e6
	// z1ChunkLatency is the relaunch cost per starved collective chunk;
	// with headroom gone, the end-of-step synchronization becomes
	// latency-bound over many small operations (paper Table V's ZeRO-1
	// drop at maximum model size, at undiminished NVLink utilization).
	z1ChunkLatency = 3500 * sim.Microsecond
	// zero3LayerOverhead is ZeRO-3's per-module coordination cost
	// (parameter registration hooks, gather bookkeeping) per layer visit.
	// Calibrated against Fig 5: ZeRO-3 takes 696 ms where ZeRO-2 takes
	// 404 ms on the identical 1.4 B model, i.e. ≈ 5-6 ms per layer visit of
	// non-overlappable overhead.
	zero3LayerOverhead = 2500 * sim.Microsecond
	// zero3OffloadLayerOverhead replaces it when parameters live in host
	// memory: every gather additionally synchronizes host staging (the
	// "more data movement between CPU and GPU memory, adding more latency"
	// of Sec V-A1).
	zero3OffloadLayerOverhead = 8 * sim.Millisecond
	// Background housekeeping rates per node — dataloader staging, logging
	// and framework bookkeeping — visible as the small non-zero DRAM /
	// PCIe / xGMI utilization in the paper's single-node Table IV rows.
	bgDRAMPerSocket = 0.75e9
	bgPCIePerGPU    = 0.15e9
	bgXGMIPerNode   = 0.15e9
)

// Result is the outcome of one training run.
type Result struct {
	Config  Config
	Profile memory.Profile

	Iterations     int
	IterTime       sim.Time
	ModelFLOPs     float64 // executed FLOPs per iteration (profiler convention)
	AttainedTFLOPs float64 // aggregate across all GPUs

	Memory memory.Usage // per node (analytic plan)
	// PeakGPUBytes is the per-GPU peak observed by the runtime memory
	// tracker (static residents + live activations).
	PeakGPUBytes float64

	Stats  map[fabric.Class]telemetry.Stats  // node-0 aggregates over the measured window
	Series map[fabric.Class]telemetry.Series // node-0 aggregate series

	Trace *trace.Trace

	MeasureStart, MeasureEnd sim.Time
	// LastIterStart/LastIterEnd bracket the final measured iteration — the
	// one the trace records when Config.Trace is set. BreakdownOver sums a
	// trace against exactly this window, so components (including untraced
	// framework overhead, which lands in GPUIdle) account for the full
	// iteration.
	LastIterStart, LastIterEnd sim.Time
}

// Runner executes a training configuration on a fresh simulated cluster.
type Runner struct {
	cfg     Config
	prof    memory.Profile
	cluster *topology.Cluster
	world   *collective.Group
	gpu     compute.GPUModel
	cpu     compute.CPUModel
	vols    []*nvme.Volume
	mem     *memTracker
	tr      *trace.Trace

	gradBytes  float64 // 2Ψ FP16 gradients
	paramBytes float64 // 2Ψ FP16 parameters

	// exec replays the iteration program, built lazily on first use and
	// reused thereafter.
	exec *schedule.Executor
}

// newRunner validates the configuration and builds the simulated cluster and
// runner state without starting the simulation. Run drives it to completion;
// the bench/alloc harnesses use it to replay iterations under their own
// engine control.
func newRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof := cfg.Profile()
	if !prof.Fits(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode) {
		return nil, fmt.Errorf("train: %s cannot fit %s (%s)",
			cfg.Name(), cfg.Model, prof.Plan(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode))
	}

	topoCfg := topology.DefaultConfig(cfg.Nodes)
	if cfg.PurposeBuilt {
		topoCfg = topology.PurposeBuiltConfig(cfg.Nodes)
	}
	topoCfg.Window = cfg.Window
	topoCfg.RoCEBW = cfg.RoCEBW
	if cfg.XbarBW > 0 {
		topoCfg.XbarBW = cfg.XbarBW
	}
	if cfg.needsNVMe() {
		topoCfg.Drives = cfg.Placement.Drives
	}
	cluster := topology.New(topoCfg)
	if cfg.FaultInjection != nil {
		cfg.FaultInjection(cluster)
	}

	r := &Runner{
		cfg:     cfg,
		prof:    prof,
		cluster: cluster,
		world:   collective.NewGroup(cluster, collective.NodeMajorRanks(cfg.Nodes, topology.GPUsPerNode)),
		gpu:     compute.DefaultGPU(),
		cpu:     compute.DefaultCPU(),
	}
	if cfg.needsNVMe() {
		r.vols = cfg.Placement.Build(cluster)
	}
	psi := float64(cfg.Model.Params())
	r.gradBytes = 2 * psi
	r.paramBytes = 2 * psi
	r.initMemTracker()
	return r, nil
}

// Run executes the configuration and returns measurements. Generated
// datacenter fabrics (Config.Topo) run through the scale model in dc.go;
// everything else is the paper's testbed.
func Run(cfg Config) (*Result, error) {
	if cfg.IsDC() {
		return runDC(cfg)
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	cfg, prof, cluster := r.cfg, r.prof, r.cluster

	res := &Result{Config: cfg, Profile: prof}
	eng := cluster.Eng
	t := &trainer{r: r, res: res}
	t.resume = t.run
	hk := &housekeeper{r: r, t: t}
	hk.resume = hk.run
	eng.Schedule(0, t.resume)
	eng.Schedule(0, hk.resume)
	eng.Run()
	if !t.done || !hk.done {
		return nil, fmt.Errorf("train: simulation deadlocked before the trainer and housekeeping machines reached their end")
	}
	cluster.Net.Quiesce()

	res.Iterations = cfg.Iterations
	res.IterTime = (res.MeasureEnd - res.MeasureStart) / sim.Time(cfg.Iterations)
	// Every strategy processes world-size × per-GPU-batch sequences per
	// iteration: data-parallel strategies via replicas, Megatron-LM via
	// gradient-accumulation microbatches.
	res.ModelFLOPs = cfg.Model.IterationFLOPs(cfg.BatchPerGPU, cfg.WorldSize(), prof.ActivationCkpt)
	if res.IterTime > 0 {
		res.AttainedTFLOPs = res.ModelFLOPs / res.IterTime.ToSeconds() / 1e12
	}
	res.Memory = prof.Plan(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode)
	res.Stats = make(map[fabric.Class]telemetry.Stats)
	res.Series = make(map[fabric.Class]telemetry.Series)
	for _, class := range fabric.MeasuredClasses() {
		s := cluster.ClassSeries(class, 0, res.MeasureStart, res.MeasureEnd)
		res.Series[class] = s
		res.Stats[class] = s.Stats()
	}
	res.Trace = r.tr
	res.PeakGPUBytes = r.mem.peak
	return res, nil
}

// Cluster exposes the simulated hardware (for advanced inspection in tests
// and the stress/bench harnesses).
func (r *Runner) Cluster() *topology.Cluster { return r.cluster }

// ---- the run's machines ----

// trainStage is where a trainer resumes: the stage its last blocking step
// hands over to.
type trainStage int

const (
	trainStart    trainStage = iota // run the start-up program
	trainIterate                    // start the next iteration, or end
	trainIterated                   // an iteration finished
)

// trainer drives a testbed run: a callback state machine over two schedule
// programs — start-up, then Warmup+Iterations replays of the iteration. A
// program that takes virtual time hands resume to its completion and
// returns; one that completes inline continues in the loop.
type trainer struct {
	r      *Runner
	res    *Result
	stage  trainStage
	iter   int    // iterations started, warm-up included
	done   bool   // reached the end of training
	resume func() // run, bound once
}

// run continues the run from its stage until a step blocks or training
// ends.
func (t *trainer) run() {
	r, res := t.r, t.res
	cfg, eng := &r.cfg, r.cluster.Eng
	warm, iters := max(0, cfg.Warmup), max(0, cfg.Iterations)
	for {
		switch t.stage {
		case trainStart:
			t.stage = trainIterate
			if !r.startup(t.resume) {
				return
			}
		case trainIterate:
			i := t.iter - warm // measured iteration index
			if i == 0 {
				res.MeasureStart = eng.Now()
			}
			if i == iters {
				res.MeasureEnd = eng.Now()
				t.done = true
				return
			}
			if i >= 0 && i == iters-1 {
				if cfg.Trace {
					r.tr = trace.New()
				}
				res.LastIterStart = eng.Now()
			}
			t.stage = trainIterated
			if !r.replay(t.resume) {
				return
			}
		case trainIterated:
			i := t.iter - warm
			t.iter++
			t.stage = trainIterate
			if i >= 0 && i == iters-1 {
				res.LastIterEnd = eng.Now()
			}
		}
	}
}

// housekeeper is the background housekeeping machine (dataloader staging,
// logging): a steady trickle on DRAM, PCIe and xGMI, emitted in one-second
// paced slices until training ends.
type housekeeper struct {
	r      *Runner
	t      *trainer
	batch  []*fabric.Flow
	done   bool   // saw training end
	resume func() // run, bound once
}

// run emits one slice and sleeps through it, or ends once training has.
func (h *housekeeper) run() {
	if h.t.done {
		h.done = true
		return
	}
	cluster, nodes := h.r.cluster, h.r.cfg.Nodes
	slice := sim.Second
	sec := slice.ToSeconds()
	batch := h.batch[:0]
	for n := 0; n < nodes; n++ {
		for s := 0; s < topology.SocketsPerNode; s++ {
			batch = append(batch, &fabric.Flow{
				Name:      "bg/dram",
				Path:      []*fabric.Link{cluster.DRAMLink(n, s)},
				Bytes:     bgDRAMPerSocket * sec,
				RateLimit: bgDRAMPerSocket,
			})
		}
		for gi := 0; gi < topology.GPUsPerNode; gi++ {
			g := topology.GPU{Node: n, Index: gi}
			batch = append(batch, &fabric.Flow{
				Name:      "bg/pcie",
				Path:      []*fabric.Link{cluster.PCIeGPULink(g), cluster.DRAMLink(n, g.Socket())},
				Bytes:     bgPCIePerGPU * sec,
				RateLimit: bgPCIePerGPU,
			})
		}
		batch = append(batch, &fabric.Flow{
			Name:      "bg/xgmi",
			Path:      []*fabric.Link{cluster.XGMILink(n)},
			Bytes:     bgXGMIPerNode * sec,
			RateLimit: bgXGMIPerNode,
		})
	}
	h.batch = batch
	cluster.Net.StartFlows(batch, nil)
	cluster.Eng.Schedule(slice, h.resume)
}

// ---- the start-up program ----

// Start-up runs before the first iteration, as a schedule program of its
// own replayed through the same executor (executor.go). Its ops carry
// PhaseNone, a fresh Builder's phase.

// eachGPU enumerates the cluster's GPUs with their global rank.
func (r *Runner) eachGPU(fn func(rank int, g topology.GPU)) {
	rank := 0
	for n := 0; n < r.cfg.Nodes; n++ {
		for i := 0; i < topology.GPUsPerNode; i++ {
			fn(rank, topology.GPU{Node: n, Index: i})
			rank++
		}
	}
}

// startupSchedule models job start-up: rank 0 materializes the weights and
// replicates them — a broadcast of the FP16 parameters over two rings for
// replicated strategies (PyTorch DDP broadcasts module buffers at
// construction; DeepSpeed does the same for ZeRO-1/2), or a scatter of each
// shard for partitioned parameters, which moves a one-ring reduce-scatter's
// volume (DeepSpeed's partitioned phases use one NCCL channel). It returns
// nil when each model-parallel rank loads its own slice (Megatron).
// Start-up precedes the warm-up iterations and therefore never pollutes
// measured statistics, but it exercises the start-up path the way a real
// launcher does.
func (r *Runner) startupSchedule() *schedule.Schedule {
	if r.cfg.Strategy == Megatron {
		return nil
	}
	b := schedule.NewBuilder()
	if r.prof.ParamShards > 1 {
		b.Sync(collective.ReduceScatter, r.paramBytes, 0, 1)
	} else {
		b.Sync(collective.Broadcast, r.paramBytes, 0, 2)
	}
	return b.S
}

// zero3Overhead returns the per-layer-visit coordination cost of ZeRO-3's
// parameter partitioning machinery.
func (r *Runner) zero3Overhead() sim.Time {
	if r.cfg.Offload == memory.CPUOffload || r.cfg.Offload == memory.NVMeOptimizerAndParams {
		return zero3OffloadLayerOverhead
	}
	return zero3LayerOverhead
}

// z1ChunkBytes returns the fused-buffer size available to ZeRO-1's
// end-of-step collectives: the remaining GPU headroom, clamped to
// [z1MinChunkBytes, BucketBytes].
func (r *Runner) z1ChunkBytes() float64 {
	headroom := memory.GPUMemBytes - r.prof.Plan(r.cfg.Model, r.cfg.BatchPerGPU, topology.GPUsPerNode).PerGPU
	if headroom > memory.BucketBytes {
		return memory.BucketBytes
	}
	if headroom < z1MinChunkBytes {
		return z1MinChunkBytes
	}
	return headroom
}
