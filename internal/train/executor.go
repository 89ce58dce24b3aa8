package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
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
// cached schedules stay pure data shared across runs. A testbed run replays
// two programs through it: start-up and the iteration.

// replay starts one training step of the configured strategy by replaying
// its compiled schedule, building the schedule and executor on first use.
// Ranks run in lockstep (the workload is SPMD-symmetric), so one driver
// advances the shared program while flows and collectives contend on the
// fabric. It reports whether the iteration completed inline; otherwise done
// fires when it ends.
func (r *Runner) replay(done func()) bool {
	if r.exec == nil {
		r.exec = schedule.NewExecutor(trainEnv{r}, r.iterationSchedule())
	}
	return r.exec.Run(done)
}

// startup runs the start-up program once, if the strategy has one, and
// reports whether it completed inline; otherwise done fires when it ends.
func (r *Runner) startup(done func()) bool {
	s := r.startupSchedule()
	if s == nil {
		return true
	}
	return schedule.NewExecutor(trainEnv{r}, s).Run(done)
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
// next micro-batch on every rank: int32 input ids plus shifted labels, two
// tensors of batch × seqLen tokens, prefetched asynchronously the way
// PyTorch dataloaders overlap H2D copies with compute.
func (r *Runner) stageBatchFlowsFn() func() []*fabric.Flow {
	bytes := 2 * float64(r.cfg.BatchPerGPU) * float64(r.cfg.Model.SeqLen) * 4
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		r.eachGPU(func(rank int, g topology.GPU) {
			route := r.cluster.GPUToCPU(g, g.Socket())
			flows = append(flows, route.Flow(fmt.Sprintf("dataloader/r%d", rank), bytes))
		})
		return flows
	}
}

// offloadFlowsFn builds the per-rank GPU↔host staging pair of an offload
// copy of bytesPerRank. Half the staging lands on the GPU's local socket,
// half on the neighbour (DeepSpeed's pinned buffers are not NUMA-aware),
// which is what puts offload traffic on xGMI in the paper's Table IV.
func (r *Runner) offloadFlowsFn(bytesPerRank float64) func() []*fabric.Flow {
	return func() []*fabric.Flow {
		var flows []*fabric.Flow
		r.eachGPU(func(rank int, g topology.GPU) {
			local := r.cluster.GPUToCPU(g, g.Socket())
			remote := r.cluster.GPUToCPU(g, 1-g.Socket())
			flows = append(flows,
				local.Flow(fmt.Sprintf("offload/r%d/local", rank), bytesPerRank*(1-crossStagingFrac)),
				remote.Flow(fmt.Sprintf("offload/r%d/remote", rank), bytesPerRank*crossStagingFrac))
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
