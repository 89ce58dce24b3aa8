package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/telemetry"
	"llmbw/internal/topology"
)

// runDC executes a training configuration on a generated datacenter fabric.
// The model is deliberately coarser than the testbed runner: purpose-built
// homogeneous nodes, no offload or NVMe machinery, and the iteration reduced
// to its scale-determining skeleton — lockstep compute, the strategy's
// collectives over the whole fabric, and the optimizer step. What it adds is
// the part the testbed cannot show: every node runs as its own simulation
// process on its home shard, and with a hierarchical algorithm the
// cross-node legs are store-and-forward handoffs, so the -shards knob
// parallelizes the run along the fabric's pod seams.
func runDC(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof := cfg.Profile()
	if !prof.Fits(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode) {
		return nil, fmt.Errorf("train: %s cannot fit %s (%s)",
			cfg.Name(), cfg.Model, prof.Plan(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode))
	}
	dcCfg, err := topology.ParseTopoSpec(cfg.Topo)
	if err != nil {
		return nil, err
	}
	dcCfg.Window = cfg.Window
	algo, err := collective.ParseAlgo(cfg.Algo)
	if err != nil {
		return nil, err
	}

	// A flat collective is one fluid fair-share domain: it runs on one shard
	// whatever -shards asks for.
	shards := cfg.Shards
	if algo == collective.AlgoFlat {
		shards = 1
	}
	sc, err := topology.NewDCSharded(dcCfg, shards)
	if err != nil {
		return nil, err
	}
	grp := collective.NewDCGroup(sc, algo)

	world := cfg.WorldSize()
	psi := float64(cfg.Model.Params())
	gradBytes, paramBytes := 2*psi, 2*psi
	gpu := compute.DefaultGPU()
	// Per-GPU compute per iteration; ZeRO-3 interleaves its gathers between
	// the forward and backward passes, split 1:2 as in the testbed model.
	flopsPerGPU := cfg.Model.IterationFLOPs(cfg.BatchPerGPU, world, prof.ActivationCkpt) / float64(world)
	computeT := gpu.KernelTime(flopsPerGPU)
	fwdT := gpu.KernelTime(flopsPerGPU / 3)
	bwdT := gpu.KernelTime(2 * flopsPerGPU / 3)
	adamFull := gpu.AdamTime(cfg.Model.Params())
	adamShard := gpu.AdamTime(cfg.Model.Params() / int64(world))

	// Every collective shape the iteration uses is compiled up front: replay
	// only reads the plan map, which keeps StartNode safe from every shard.
	var iterate func(p *sim.Proc, node int)
	switch cfg.Strategy {
	case DDP:
		grp.Precompile(collective.AllReduce, gradBytes)
		iterate = func(p *sim.Proc, node int) {
			p.Sleep(computeT)
			grp.RunNode(p, collective.AllReduce, gradBytes, node)
			p.Sleep(adamFull)
		}
	case ZeRO1, ZeRO2:
		grp.Precompile(collective.ReduceScatter, gradBytes)
		grp.Precompile(collective.AllGather, paramBytes)
		iterate = func(p *sim.Proc, node int) {
			p.Sleep(computeT)
			grp.RunNode(p, collective.ReduceScatter, gradBytes, node)
			p.Sleep(adamShard)
			grp.RunNode(p, collective.AllGather, paramBytes, node)
		}
	case ZeRO3:
		grp.Precompile(collective.AllGather, paramBytes)
		grp.Precompile(collective.ReduceScatter, gradBytes)
		iterate = func(p *sim.Proc, node int) {
			grp.RunNode(p, collective.AllGather, paramBytes, node)
			p.Sleep(fwdT)
			grp.RunNode(p, collective.AllGather, paramBytes, node)
			p.Sleep(bwdT)
			grp.RunNode(p, collective.ReduceScatter, gradBytes, node)
			p.Sleep(adamShard)
		}
	default:
		return nil, fmt.Errorf("train: %v is not supported on generated fabrics", cfg.Strategy)
	}

	// One trainer process per node, living on the node's shard. starts/ends
	// are indexed per node, so each shard writes only its own slots.
	starts := make([]sim.Time, cfg.Nodes)
	ends := make([]sim.Time, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		n := n
		sc.EngineOf(n).Go(fmt.Sprintf("dc-trainer-%d", n), func(p *sim.Proc) {
			for i := 0; i < cfg.Warmup; i++ {
				iterate(p, n)
			}
			starts[n] = p.Now()
			for i := 0; i < cfg.Iterations; i++ {
				iterate(p, n)
			}
			ends[n] = p.Now()
		})
	}
	sc.RunSim()
	if n := sc.Eng.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("train: simulation deadlocked with %d live processes", n)
	}
	for _, g := range sc.Groups {
		g.Net.Quiesce()
	}

	res := &Result{Config: cfg, Profile: prof}
	res.MeasureStart = starts[0]
	res.MeasureEnd = ends[0]
	for _, e := range ends {
		if e > res.MeasureEnd {
			res.MeasureEnd = e
		}
	}
	res.Iterations = cfg.Iterations
	res.IterTime = (res.MeasureEnd - res.MeasureStart) / sim.Time(cfg.Iterations)
	res.ModelFLOPs = cfg.Model.IterationFLOPs(cfg.BatchPerGPU, world, prof.ActivationCkpt)
	if res.IterTime > 0 {
		res.AttainedTFLOPs = res.ModelFLOPs / res.IterTime.ToSeconds() / 1e12
	}
	res.Memory = prof.Plan(cfg.Model, cfg.BatchPerGPU, topology.GPUsPerNode)
	res.PeakGPUBytes = res.Memory.PerGPU
	res.Stats = make(map[fabric.Class]telemetry.Stats)
	res.Series = make(map[fabric.Class]telemetry.Series)
	for _, class := range fabric.MeasuredClasses() {
		s := sc.ClassSeries(class, 0, res.MeasureStart, res.MeasureEnd)
		res.Series[class] = s
		res.Stats[class] = s.Stats()
	}
	return res, nil
}
