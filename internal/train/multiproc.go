package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
	"llmbw/internal/model"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// This file contains a reference implementation of DDP that runs one
// simulated process per GPU rank — a callback state machine over the rank's
// program — synchronizing through rendezvous-driven collectives and barriers:
// the "honest" SPMD execution. The production scheduler (runner.go) advances
// all ranks in lockstep from a single driver, which is exact for symmetric
// ranks; this implementation exists to (a) cross-validate that equivalence in
// tests, and (b) model asymmetric ranks — stragglers — which lockstep cannot
// express.

// MultiProcConfig configures a per-rank DDP reference run.
type MultiProcConfig struct {
	Nodes       int
	Model       model.GPT
	BatchPerGPU int
	Iterations  int
	// RankSlowdown multiplies the compute time of individual ranks
	// (1.0 = nominal). Missing ranks default to 1.0. This is the straggler
	// knob: synchronous data parallelism runs at the pace of the slowest.
	RankSlowdown map[int]float64
}

func (c MultiProcConfig) withDefaults() MultiProcConfig {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.BatchPerGPU == 0 {
		c.BatchPerGPU = model.DefaultBatchSize
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	return c
}

// MultiProcResult reports the reference run's timing.
type MultiProcResult struct {
	IterTime       sim.Time
	AttainedTFLOPs float64
}

// RunDDPMultiProcess executes DDP with one process per rank. Every rank
// computes its forward and backward passes independently (with its own
// slowdown factor), participates in per-bucket gradient all-reduces through
// a rendezvous (the last arrival launches the ring, everyone resumes when it
// completes), and meets at a barrier before the optimizer step.
func RunDDPMultiProcess(cfg MultiProcConfig) (*MultiProcResult, error) {
	p, err := newRankProgram(cfg)
	if err != nil {
		return nil, err
	}
	g := p.cfg.Model
	b := p.cfg.BatchPerGPU
	bk := buckets(g.Layers)
	perBucket := 2 * float64(g.Params()) / float64(len(bk))
	allReduce := func(done func()) { p.group.Start(collective.AllReduce, perBucket, done) }

	// Forward.
	for l := 0; l < g.Layers; l++ {
		p.kernel(g.LayerForwardFLOPs(b))
	}
	p.kernel(g.HeadForwardFLOPs(b))
	// Backward with per-bucket all-reduce at each rendezvous.
	p.kernel(2 * g.HeadForwardFLOPs(b))
	for _, k := range bk {
		p.kernel(2 * g.LayerForwardFLOPs(b) * float64(k))
		p.rendezvous(allReduce)
	}
	// Optimizer step, then a barrier to align the iteration.
	p.sleep(p.gpu.AdamTime(g.Params()))
	p.barrier()
	return p.run(g.IterationFLOPs(b, p.world, false))
}

// RunZeRO2MultiProcess is the per-rank reference for ZeRO-2: forward and
// backward per rank, a rendezvous reduce-scatter per bucket, a per-rank
// optimizer step over the local partition, and a rendezvous parameter
// all-gather — cross-validating the lockstep ZeRO-2 scheduler.
func RunZeRO2MultiProcess(cfg MultiProcConfig) (*MultiProcResult, error) {
	p, err := newRankProgram(cfg)
	if err != nil {
		return nil, err
	}
	g := p.cfg.Model
	b := p.cfg.BatchPerGPU
	bk := buckets(g.Layers)
	gradBytes := 2 * float64(g.Params())
	paramBytes := gradBytes
	perBucket := gradBytes / float64(len(bk))
	startRings := func(op collective.Op, payload float64) func(done func()) {
		return func(done func()) { p.group.StartRings(op, payload, 0, 1, done) }
	}

	overlap := p.cfg.Nodes == 1
	for l := 0; l < g.Layers; l++ {
		p.kernel(g.LayerForwardFLOPs(b))
	}
	p.kernel(g.HeadForwardFLOPs(b))
	p.kernel(2 * g.HeadForwardFLOPs(b))
	for _, k := range bk {
		// Checkpointing recompute plus backward.
		p.kernel(3 * g.LayerForwardFLOPs(b) * float64(k))
		if overlap {
			p.rendezvous(startRings(collective.ReduceScatter, perBucket))
		}
	}
	if !overlap {
		p.rendezvous(startRings(collective.ReduceScatter, gradBytes))
	}
	p.sleep(p.gpu.AdamTime(g.Params() / int64(p.world)))
	p.rendezvous(startRings(collective.AllGather, paramBytes))
	p.barrier()
	return p.run(g.IterationFLOPs(b, p.world, true))
}

// rankStep is one step of a rank's iteration: a sleep of dur (scaled by the
// rank's slowdown when scaled), an arrival at rendezvous rv, which the last
// arrival leads, or an arrival at the iteration barrier.
type rankStep struct {
	dur     sim.Time
	scaled  bool
	rv      *sim.Rendezvous
	leader  func(done func())
	barrier bool
}

// rankProgram is the iteration every rank runs, built once and shared: the
// steps and the synchronization objects they meet at, one rendezvous per
// collective step (each resets between rounds, so one serves every
// iteration) and one barrier.
type rankProgram struct {
	cfg   MultiProcConfig
	eng   *sim.Engine
	group *collective.Group // every rank, node-major
	gpu   compute.GPUModel
	world int
	steps []rankStep
	bar   sim.Barrier
}

// newRankProgram validates cfg and builds its cluster and world group, with
// an empty program.
func newRankProgram(cfg MultiProcConfig) (*rankProgram, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes < 1 || cfg.Nodes > MaxNodes {
		return nil, fmt.Errorf("train: %d nodes unsupported", cfg.Nodes)
	}
	cluster := topology.New(topology.DefaultConfig(cfg.Nodes))
	world := cfg.Nodes * topology.GPUsPerNode
	return &rankProgram{
		cfg:   cfg,
		eng:   cluster.Eng,
		group: collective.NewGroup(cluster, collective.NodeMajorRanks(cfg.Nodes, topology.GPUsPerNode)),
		gpu:   compute.DefaultGPU(),
		world: world,
		bar:   sim.Barrier{N: world},
	}, nil
}

func (p *rankProgram) kernel(flops float64) {
	p.steps = append(p.steps, rankStep{dur: p.gpu.KernelTime(flops), scaled: true})
}

func (p *rankProgram) sleep(d sim.Time) { p.steps = append(p.steps, rankStep{dur: d}) }

func (p *rankProgram) rendezvous(leader func(done func())) {
	p.steps = append(p.steps, rankStep{rv: &sim.Rendezvous{N: p.world}, leader: leader})
}

func (p *rankProgram) barrier() { p.steps = append(p.steps, rankStep{barrier: true}) }

// run starts one rank machine per rank in rank order, runs the simulation,
// and measures rank 0 from the start of the second iteration to the end of
// the last (from time zero when there is only one). flops is the work of one
// iteration.
func (p *rankProgram) run(flops float64) (*MultiProcResult, error) {
	cfg := p.cfg
	iters := max(0, cfg.Iterations)
	ranks := make([]*rankMachine, p.world)
	for rank := range ranks {
		m := &rankMachine{p: p, factor: 1, total: iters * len(p.steps)}
		if f, ok := cfg.RankSlowdown[rank]; ok && f > 0 {
			m.factor = f
		}
		if iters > 1 {
			m.second = len(p.steps)
		}
		m.resume = m.run
		ranks[rank] = m
		p.eng.Schedule(0, m.resume)
	}
	p.eng.Run()
	stuck := 0
	for _, m := range ranks {
		if !m.done {
			stuck++
		}
	}
	if stuck != 0 {
		return nil, fmt.Errorf("train: multiproc deadlock (%d ranks short of their program's end)", stuck)
	}
	n := cfg.Iterations - 1
	if n < 1 {
		n = 1
	}
	r0 := ranks[0]
	res := &MultiProcResult{IterTime: (r0.end - r0.start) / sim.Time(n)}
	if res.IterTime > 0 {
		res.AttainedTFLOPs = flops / res.IterTime.ToSeconds() / 1e12
	}
	return res, nil
}

// rankMachine is one rank: a callback state machine whose program counter
// walks the shared iteration Iterations times. A sleep hands resume to the
// engine and a parked arrival to its rendezvous or barrier; a zero sleep and
// an arrival that passes inline continue in the loop.
type rankMachine struct {
	p      *rankProgram
	factor float64 // compute slowdown (1 = nominal)
	pc     int     // next program step
	total  int     // program steps in all
	second int     // pc at which the second iteration starts; 0 when none

	start, end sim.Time // clock at the second iteration's start and the end
	done       bool     // reached the end of the program
	resume     func()   // run, bound once
}

// run executes the program from pc until a step blocks or the program ends.
func (m *rankMachine) run() {
	p := m.p
	for {
		if m.pc == m.second && m.second > 0 {
			m.start = p.eng.Now()
		}
		if m.pc == m.total {
			m.end = p.eng.Now()
			m.done = true
			return
		}
		s := &p.steps[m.pc%len(p.steps)]
		m.pc++
		switch {
		case s.rv != nil:
			if !s.rv.Do(p.eng, s.leader, m.resume) {
				return
			}
		case s.barrier:
			if !p.bar.Wait(p.eng, m.resume) {
				return
			}
		default:
			d := s.dur
			if s.scaled {
				d = sim.Time(float64(d) * m.factor)
			}
			if d > 0 {
				p.eng.Schedule(d, m.resume)
				return
			}
		}
	}
}
