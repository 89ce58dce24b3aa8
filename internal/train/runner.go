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
	ckptVol *nvme.Volume
	mem     *memTracker
	tr      *trace.Trace

	psi        float64 // total parameters
	gradBytes  float64 // 2Ψ FP16 gradients
	paramBytes float64 // 2Ψ FP16 parameters

	// flowScratch collects startRankFlows' per-rank flows for batched
	// admission; StartFlows does not retain the slice, so one buffer serves
	// every call.
	flowScratch []*fabric.Flow

	// exec/waiter are the compiled-schedule replay state, built lazily on the
	// first iteration and reused thereafter.
	exec   *schedule.Executor
	waiter *sim.Waiter
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
	if cfg.CheckpointEvery > 0 {
		if len(r.vols) > 0 {
			r.ckptVol = r.vols[0]
		} else {
			// The default scratch: both node-0 drives in RAID0, as the
			// paper's mdadm setup.
			scratch := &nvme.Volume{Name: "scratch"}
			for _, spec := range topoCfg.Drives {
				if spec.Node == 0 {
					scratch.Drives = append(scratch.Drives, nvme.NewDrive(cluster, spec))
				}
			}
			r.ckptVol = scratch
		}
	}
	r.psi = float64(cfg.Model.Params())
	r.gradBytes = 2 * r.psi
	r.paramBytes = 2 * r.psi
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
	trainingDone := false
	eng.Go("trainer", func(p *sim.Proc) {
		r.initializeParameters(p)
		for i := 0; i < cfg.Warmup; i++ {
			r.runIteration(p)
		}
		res.MeasureStart = p.Now()
		for i := 0; i < cfg.Iterations; i++ {
			if cfg.Trace && i == cfg.Iterations-1 {
				r.tr = trace.New()
			}
			if i == cfg.Iterations-1 {
				res.LastIterStart = p.Now()
			}
			r.runIteration(p)
			if i == cfg.Iterations-1 {
				res.LastIterEnd = p.Now()
			}
			if cfg.CheckpointEvery > 0 && (i+1)%cfg.CheckpointEvery == 0 {
				r.writeCheckpoint(p)
			}
		}
		res.MeasureEnd = p.Now()
		trainingDone = true
	})
	// Background housekeeping (dataloader staging, logging): a steady trickle
	// on DRAM, PCIe and xGMI, emitted in one-second paced slices until the
	// training process finishes.
	eng.Go("housekeeping", func(p *sim.Proc) {
		var batch []*fabric.Flow
		for !trainingDone {
			slice := sim.Second
			sec := slice.ToSeconds()
			batch = batch[:0]
			for n := 0; n < cfg.Nodes; n++ {
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
			cluster.Net.StartFlows(batch, nil)
			p.Sleep(slice)
		}
	})
	cluster.Eng.Run()
	if n := cluster.Eng.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("train: simulation deadlocked with %d live processes", n)
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

// ---- start-up and checkpoint building blocks ----

// Training iterations run as compiled schedules (compile.go, executor.go);
// the blocking helpers below serve the work outside them: parameter
// initialization before warm-up and checkpoint writes between iterations.

// traceAll records one span on every rank's timeline. These spans carry no
// iteration phase: they fall outside the compiled iteration program.
func (r *Runner) traceAll(kind trace.Kind, start, end sim.Time) {
	if !r.tr.Enabled() {
		return
	}
	for rank := 0; rank < r.cfg.WorldSize(); rank++ {
		r.tr.Add(rank, kind, start, end)
	}
}

// syncCollective runs a collective on the world group, blocking the
// schedule (exposed communication). rings selects the NCCL channel count:
// 2 for fused framework collectives, 1 for DeepSpeed's partitioned phases.
func (r *Runner) syncCollective(p *sim.Proc, op collective.Op, payload float64, rings int) {
	start := p.Now()
	p.Await(func(resume func()) { r.world.StartRings(op, payload, 0, rings, resume) })
	r.traceAll(schedule.TraceKind(op), start, p.Now())
}

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

// startRankFlows launches flows for every rank in one admission batch and
// invokes done when all complete.
func (r *Runner) startRankFlows(kind trace.Kind, mk func(rank int, g topology.GPU) []*fabric.Flow, done func()) {
	flows := r.flowScratch[:0]
	r.eachGPU(func(rank int, g topology.GPU) {
		flows = append(flows, mk(rank, g)...)
	})
	r.flowScratch = flows
	if len(flows) == 0 {
		r.cluster.Eng.Schedule(0, done)
		return
	}
	t0 := r.cluster.Eng.Now()
	remaining := len(flows)
	r.cluster.Net.StartFlows(flows, func() {
		remaining--
		if remaining == 0 {
			r.traceAll(kind, t0, r.cluster.Eng.Now())
			done()
		}
	})
}

// offloadCopyFlows moves bytesPerRank between every GPU and host memory.
// Half the staging lands on the GPU's local socket, half on the neighbour
// (DeepSpeed's pinned buffers are not NUMA-aware), which is what puts offload
// traffic on xGMI in the paper's Table IV.
func (r *Runner) offloadCopyFlows(bytesPerRank float64) func(rank int, g topology.GPU) []*fabric.Flow {
	return func(rank int, g topology.GPU) []*fabric.Flow {
		local := r.cluster.GPUToCPU(g, g.Socket())
		remote := r.cluster.GPUToCPU(g, 1-g.Socket())
		return []*fabric.Flow{
			local.Flow(fmt.Sprintf("offload/r%d/local", rank), bytesPerRank*(1-crossStagingFrac)),
			remote.Flow(fmt.Sprintf("offload/r%d/remote", rank), bytesPerRank*crossStagingFrac),
		}
	}
}

// offloadCopy is the blocking form.
func (r *Runner) offloadCopy(p *sim.Proc, bytesPerRank float64) {
	p.Await(func(resume func()) {
		r.startRankFlows(trace.OffloadCopy, r.offloadCopyFlows(bytesPerRank), resume)
	})
}

// writeCheckpoint persists the full training state to the scratch volume:
// each rank stages its shard of the FP16 weights to host memory and writes
// its 16Ψ/N-byte slice of model states (FP32 master weights, momentum,
// variance, FP16 weights) to NVMe — the save path of a real DeepSpeed job.
func (r *Runner) writeCheckpoint(p *sim.Proc) {
	world := float64(r.cfg.WorldSize())
	r.offloadCopy(p, r.paramBytes/world) // weights down to host staging
	stateBytes := 16 * r.psi / world
	t0 := p.Now()
	p.Await(func(resume func()) {
		remaining := r.cfg.WorldSize()
		r.eachGPU(func(rank int, g topology.GPU) {
			r.ckptVol.IO(g.Socket(), stateBytes, true, func() {
				remaining--
				if remaining == 0 {
					resume()
				}
			})
		})
	})
	r.traceAll(trace.NVMeIO, t0, p.Now())
}

// initializeParameters models job start-up: rank 0 materializes the weights
// and replicates them — a broadcast of the FP16 parameters for replicated
// strategies (PyTorch DDP broadcasts module buffers at construction;
// DeepSpeed does the same for ZeRO-1/2), or a scatter of each shard for
// partitioned parameters. This precedes the warm-up iterations and therefore
// never pollutes measured statistics, but it exercises the start-up path the
// way a real launcher does.
func (r *Runner) initializeParameters(p *sim.Proc) {
	switch {
	case r.cfg.Strategy == Megatron:
		// Each model-parallel rank loads its own slice; no broadcast.
		return
	case r.prof.ParamShards > 1:
		// Sharded parameters: rank 0 scatters shards (ring reduce-scatter
		// volume equivalent).
		r.syncCollective(p, collective.ReduceScatter, r.paramBytes, 1)
	default:
		r.syncCollective(p, collective.Broadcast, r.paramBytes, 2)
	}
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
