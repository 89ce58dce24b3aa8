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
// the part the testbed cannot show: every node runs its own trainer on its
// home shard, a callback state machine over the strategy's step list (no
// goroutine per node), and with a hierarchical algorithm the cross-node legs
// are store-and-forward handoffs, so the -shards knob parallelizes the run
// along the fabric's pod seams.
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
	var steps []dcStep
	switch cfg.Strategy {
	case DDP:
		steps = []dcStep{
			{dur: computeT},
			{coll: true, op: collective.AllReduce, payload: gradBytes},
			{dur: adamFull},
		}
	case ZeRO1, ZeRO2:
		steps = []dcStep{
			{dur: computeT},
			{coll: true, op: collective.ReduceScatter, payload: gradBytes},
			{dur: adamShard},
			{coll: true, op: collective.AllGather, payload: paramBytes},
		}
	case ZeRO3:
		steps = []dcStep{
			{coll: true, op: collective.AllGather, payload: paramBytes},
			{dur: fwdT},
			{coll: true, op: collective.AllGather, payload: paramBytes},
			{dur: bwdT},
			{coll: true, op: collective.ReduceScatter, payload: gradBytes},
			{dur: adamShard},
		}
	default:
		return nil, fmt.Errorf("train: %v is not supported on generated fabrics", cfg.Strategy)
	}
	for _, s := range steps {
		if s.coll {
			grp.Precompile(s.op, s.payload)
		}
	}

	// One trainer per node, living on the node's shard: each touches only
	// its own record, and starts in node order at time zero. A negative
	// iteration count runs none, as a counted loop would.
	warm := max(0, cfg.Warmup) * len(steps)
	total := warm + max(0, cfg.Iterations)*len(steps)
	trainers := make([]*dcTrainer, cfg.Nodes)
	for n := range trainers {
		t := &dcTrainer{
			eng:   sc.EngineOf(n),
			grp:   grp,
			node:  n,
			steps: steps,
			warm:  warm,
			total: total,
		}
		t.resume = t.run
		trainers[n] = t
		t.eng.Schedule(0, t.resume)
	}
	sc.RunSim()
	stuck := 0
	for _, t := range trainers {
		if !t.done {
			stuck++
		}
	}
	if stuck != 0 {
		return nil, fmt.Errorf("train: simulation deadlocked with %d trainers short of their program's end", stuck)
	}
	for _, g := range sc.Groups {
		g.Net.Quiesce()
	}

	res := &Result{Config: cfg, Profile: prof}
	res.MeasureStart = trainers[0].start
	for _, t := range trainers {
		if t.end > res.MeasureEnd {
			res.MeasureEnd = t.end
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

// dcStep is one step of a datacenter iteration: a collective round of
// (op, payload) when coll is set, otherwise a compute phase of dur.
type dcStep struct {
	coll    bool
	op      collective.Op
	payload float64
	dur     sim.Time
}

// dcTrainer is one node's trainer: a callback state machine whose program
// counter walks the strategy's step list Warmup+Iterations times. A step
// that takes virtual time hands resume to the engine — as a collective's
// completion or a compute sleep — and returns; a zero-length compute step
// continues inline. All of its state is the node's own, so it runs on the
// node's home shard alongside the collective records it drives.
type dcTrainer struct {
	eng   *sim.Engine
	grp   *collective.DCGroup
	node  int
	steps []dcStep
	warm  int // program steps before the measured window
	total int // program steps in all
	pc    int // next program step

	start, end sim.Time // clock at the measured window's edges
	done       bool     // reached the end of the program
	resume     func()   // run, bound once
}

// run executes the program from pc until a step blocks or the program ends.
func (t *dcTrainer) run() {
	for {
		if t.pc == t.warm {
			t.start = t.eng.Now()
		}
		if t.pc == t.total {
			t.end = t.eng.Now()
			t.done = true
			return
		}
		s := &t.steps[t.pc%len(t.steps)]
		t.pc++
		if s.coll {
			t.grp.StartNode(s.op, s.payload, t.node, t.resume)
			return
		}
		if s.dur > 0 {
			t.eng.Schedule(s.dur, t.resume)
			return
		}
	}
}
