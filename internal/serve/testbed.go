package serve

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/fabric"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// testbedSteps is the paper testbed's step model: each prefill pass and
// decode step is a compiled internal/schedule program (see compile.go)
// replayed by a pooled executor, so the steady token loop allocates nothing.
type testbedSteps struct {
	r        *Runner
	cluster  *topology.Cluster
	pre, dec int // prefill and decode nodes (equal when colocated)

	preGroup *collective.Group             // tensor-parallel group serving prefill
	decGroup *collective.Group             // tensor-parallel group serving decode
	preExec  map[int]*schedule.Executor    // by prompt bucket
	decExec  map[[2]int]*schedule.Executor // by (batch, ctx bucket index)
}

// newTestbedSteps builds the testbed cluster around r's placement, binds r
// to its engine, and eagerly compiles every program shape r's workload can
// present.
func newTestbedSteps(r *Runner) *testbedSteps {
	cfg := r.cfg
	tcfg := topology.DefaultConfig(cfg.Nodes)
	tcfg.Window = cfg.Window
	tcfg.RoCEBW = cfg.RoCEBW
	cluster := topology.New(tcfg)
	r.eng = cluster.Eng
	r.runSim = cluster.Eng.Run

	t := &testbedSteps{r: r, cluster: cluster, dec: r.replicas[0].node}
	t.pre = t.dec
	if len(r.prefills) > 0 {
		t.pre = r.prefills[0].node
	}
	ranks := func(node int) []topology.GPU {
		gs := make([]topology.GPU, cfg.TensorParallel)
		for i := range gs {
			gs[i] = topology.GPU{Node: node, Index: i}
		}
		return gs
	}
	t.decGroup = collective.NewGroup(cluster, ranks(t.dec))
	t.preGroup = t.decGroup
	if t.pre != t.dec {
		t.preGroup = collective.NewGroup(cluster, ranks(t.pre))
	}

	maxCtx := 0
	t.preExec = make(map[int]*schedule.Executor)
	for i := range r.reqs {
		q := &r.reqs[i]
		if c := q.prompt + q.decode; c > maxCtx {
			maxCtx = c
		}
		pb := promptBucket(q.prompt)
		if _, ok := t.preExec[pb]; !ok {
			t.preExec[pb] = schedule.NewExecutor(serveEnv{t: t, prefill: true}, t.compilePrefill(pb))
		}
	}
	maxCB := ctxBucketIdx(maxCtx)
	t.decExec = make(map[[2]int]*schedule.Executor, cfg.MaxBatch*maxCB)
	for b := 1; b <= cfg.MaxBatch; b++ {
		for cb := 1; cb <= maxCB; cb++ {
			t.decExec[[2]int{b, cb}] = schedule.NewExecutor(serveEnv{t: t}, t.compileDecode(b, cb))
		}
	}
	return t
}

// prefill replays the prompt bucket's program, KV shipment included.
func (t *testbedSteps) prefill(q *request, _, _ int, next func()) bool {
	return t.preExec[promptBucket(q.prompt)].Run(next)
}

// decode replays the (batch, context bucket) shape's program. The scheduler
// reaches it through stepModel, which hides it from simlint's call graph,
// hence its own steady marker.
//
//lint:steady
func (t *testbedSteps) decode(_, bn, cb int, next func()) bool {
	return t.decExec[[2]int{bn, cb}].Run(next)
}

// serveEnv binds the serving programs to the live cluster. KV residency is
// accounted by the scheduler at admission/completion (exact token counts),
// not through schedule memory ops (which would be bucket-quantized), so
// MemAlloc/MemFree are inert; tracing is off on the serving path.
type serveEnv struct {
	t       *testbedSteps
	prefill bool
}

func (e serveEnv) Engine() *sim.Engine      { return e.t.r.eng }
func (e serveEnv) Network() *fabric.Network { return e.t.cluster.Net }

func (e serveEnv) World() *collective.Group {
	if e.prefill {
		return e.t.preGroup
	}
	return e.t.decGroup
}

func (e serveEnv) MemAlloc(float64)                             {}
func (e serveEnv) MemFree(float64)                              {}
func (e serveEnv) TraceOp(op *schedule.Op, start, end sim.Time) {}
func (e serveEnv) NVMeTargets() []schedule.NVMeTarget           { return nil }

// FlowBuilder resolves the disaggregated KV shipment: one GPUDirect RoCE
// flow per tensor-parallel rank from the prefill node's GPU to its decode
// peer, each NIC serving its own socket's GPUs. Runs only on pool miss.
func (e serveEnv) FlowBuilder(op *schedule.Op) func() []*fabric.Flow {
	if op.Kind != schedule.OpXfer {
		panic(fmt.Sprintf("serve: no flow builder for op kind %d", int(op.Kind)))
	}
	bytes := op.Bytes
	return func() []*fabric.Flow {
		flows := make([]*fabric.Flow, e.t.r.cfg.TensorParallel)
		for i := range flows {
			src := topology.GPU{Node: e.t.pre, Index: i}
			dst := topology.GPU{Node: e.t.dec, Index: i}
			route := e.t.cluster.GPUToRemoteGPUVia(src, dst, src.Socket(), dst.Socket())
			flows[i] = route.Flow(fmt.Sprintf("kv-ship-g%d", i), bytes)
		}
		return flows
	}
}
