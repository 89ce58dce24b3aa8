package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
	"llmbw/internal/data"
	"llmbw/internal/fabric"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// The schedule executor itself lives in internal/schedule; this file is
// train's binding of it. trainEnv resolves everything a compiled program
// needs from one live Runner — the engine, the fabric, the world
// communicator, the GPU memory tracker, per-rank trace fan-out, and the
// concrete flow/NVMe constructors the pooled flow sets are built from — so
// cached schedules stay pure data shared across runs.

// runIteration executes one training step of the configured strategy by
// replaying its compiled schedule, building the schedule and executor on
// first use. Ranks run in lockstep (the workload is SPMD-symmetric), so one
// driver process advances the shared program while flows and collectives
// contend on the fabric.
func (r *Runner) runIteration(p *sim.Proc) {
	if r.exec == nil {
		r.exec = schedule.NewExecutor(trainEnv{r}, r.iterationSchedule())
		r.waiter = sim.NewWaiter(p)
	}
	r.exec.Run(r.waiter.DoneFunc())
	r.waiter.Wait()
}

// trainEnv implements schedule.Env over a Runner.
type trainEnv struct{ r *Runner }

func (e trainEnv) Engine() *sim.Engine      { return e.r.cluster.Eng }
func (e trainEnv) Network() *fabric.Network { return e.r.cluster.Net }
func (e trainEnv) World() *collective.Group { return e.r.world }
func (e trainEnv) MemAlloc(bytes float64)   { e.r.mem.alloc(bytes) }
func (e trainEnv) MemFree(bytes float64)    { e.r.mem.free(bytes) }

// TraceOp fans a completed op's span out to every rank's timeline.
func (e trainEnv) TraceOp(op *schedule.Op, start, end sim.Time) {
	tr := e.r.tr
	if !tr.Enabled() {
		return
	}
	for rank := 0; rank < e.r.cfg.WorldSize(); rank++ {
		tr.AddPhased(rank, op.TK, op.Phase, start, end)
	}
}

// FlowBuilder maps each flow-set op to its flow constructor; the builder runs
// only on a pool miss.
func (e trainEnv) FlowBuilder(op *schedule.Op) func() []*fabric.Flow {
	switch op.Kind {
	case schedule.OpFlows:
		return e.r.stageBatchFlowsFn()
	case schedule.OpXfer:
		return e.r.offloadFlowsFn(op.Bytes)
	case schedule.OpPacedFlows:
		return e.r.adamFlowsFn(op.Params, op.Dur)
	case schedule.OpRouteXfer:
		return boundaryFlowsFn(op.Routes, op.Bytes)
	}
	panic(fmt.Sprintf("train: no flow builder for schedule op %d", int(op.Kind)))
}

// NVMeTargets resolves each rank's volume and socket in rank order.
func (e trainEnv) NVMeTargets() []schedule.NVMeTarget {
	r := e.r
	out := make([]schedule.NVMeTarget, 0, r.cfg.WorldSize())
	r.eachGPU(func(rank int, g topology.GPU) {
		out = append(out, schedule.NVMeTarget{
			Vol:    r.cfg.Placement.VolumeForRank(r.vols, rank),
			Socket: g.Socket(),
		})
	})
	return out
}

// ---- flow builders (run only on a pool miss) ----

// stageBatchFlowsFn builds the dataloader's host→GPU staging traffic for the
// next micro-batch on every rank: tokenized input ids plus shifted labels
// (internal/data's packing), prefetched asynchronously the way PyTorch
// dataloaders overlap H2D copies with compute.
func (r *Runner) stageBatchFlowsFn() func() []*fabric.Flow {
	bytes := data.BatchStagingBytes(r.cfg.BatchPerGPU, r.cfg.Model.SeqLen)
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		r.eachGPU(func(rank int, g topology.GPU) {
			route := r.cluster.GPUToCPU(g, g.Socket())
			flows = append(flows, route.Flow(fmt.Sprintf("dataloader/r%d", rank), bytes))
		})
		return flows
	}
}

// offloadFlowsFn builds the per-rank GPU↔host staging pair of an offload copy
// (see offloadCopyFlows).
func (r *Runner) offloadFlowsFn(bytesPerRank float64) func() []*fabric.Flow {
	mk := r.offloadCopyFlows(bytesPerRank)
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		r.eachGPU(func(rank int, g topology.GPU) {
			flows = append(flows, mk(rank, g)...)
		})
		return flows
	}
}

// adamFlowsFn builds the DRAM traffic of DeepSpeed's CPUAdam step over
// duration d. Both sockets work concurrently, two ranks each; the traffic is
// paced over the step, with a slice crossing xGMI for the interleaved
// allocations of offloaded states.
func (r *Runner) adamFlowsFn(paramsPerRank int64, d sim.Time) func() []*fabric.Flow {
	sec := d.ToSeconds()
	perSocket := 2 * compute.AdamDRAMTraffic(paramsPerRank) // two ranks per socket
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		for s := 0; s < topology.SocketsPerNode; s++ {
			localBytes := perSocket * (1 - adamCrossFrac)
			crossBytes := perSocket * adamCrossFrac
			flows = append(flows,
				&fabric.Flow{
					Name:      fmt.Sprintf("cpuadam/s%d/local", s),
					Path:      []*fabric.Link{r.cluster.DRAMLink(0, s)},
					Bytes:     localBytes,
					RateLimit: localBytes / sec,
				},
				&fabric.Flow{
					Name: fmt.Sprintf("cpuadam/s%d/cross", s),
					Path: []*fabric.Link{
						r.cluster.XGMILink(0), r.cluster.DRAMLink(0, 1-s),
					},
					Bytes:     crossBytes,
					RateLimit: crossBytes / sec,
				})
		}
		return flows
	}
}

// boundaryFlowsFn builds one pipeline slot's inter-stage activation
// transfers, one flow per stage boundary.
func boundaryFlowsFn(routes []topology.Route, bytes float64) func() []*fabric.Flow {
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		for i, rt := range routes {
			flows = append(flows, rt.Flow(fmt.Sprintf("pp-act/%d", i), bytes))
		}
		return flows
	}
}
