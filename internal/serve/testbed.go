package serve

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/fabric"
	"llmbw/internal/topology"
)

// testbedSteps is the paper testbed's step model: a prefill pass or decode
// step is one roofline span and the two aggregated tensor-parallel
// all-reduces through compiled collective plans, and a disaggregated
// prefill then ships the request's KV cache to the decode node across the
// RoCE fabric. Each serving node walks its passes on its own walker, and
// the KV flows are built once and restarted only after they complete, so
// warm passes allocate nothing.
type testbedSteps struct {
	r        *Runner
	preGroup *collective.Group // tensor-parallel group serving prefill
	decGroup *collective.Group // tensor-parallel group serving decode
	passes   []walker          // per node: its pass in flight
	kv       []*fabric.Flow    // per tensor-parallel rank: its KV shipment (disaggregated only)
}

// newTestbedSteps builds the testbed cluster around r's placement and binds
// r to its engine.
func newTestbedSteps(r *Runner) *testbedSteps {
	cfg := r.cfg
	tcfg := topology.DefaultConfig(cfg.Nodes)
	tcfg.Window = cfg.Window
	tcfg.RoCEBW = cfg.RoCEBW
	cluster := topology.New(tcfg)
	r.eng = cluster.Eng
	r.runSim = cluster.Eng.Run

	// The prefill and decode nodes are equal when colocated.
	dec := r.replicas[0].node
	pre := dec
	if len(r.prefills) > 0 {
		pre = r.prefills[0].node
	}
	ranks := func(node int) []topology.GPU {
		gs := make([]topology.GPU, cfg.TensorParallel)
		for i := range gs {
			gs[i] = topology.GPU{Node: node, Index: i}
		}
		return gs
	}
	t := &testbedSteps{r: r, passes: newWalkers(cfg.Nodes, r.eng, cluster.Net)}
	t.decGroup = collective.NewGroup(cluster, ranks(dec))
	t.preGroup = t.decGroup
	if pre != dec {
		t.preGroup = collective.NewGroup(cluster, ranks(pre))
		// One GPUDirect RoCE flow per tensor-parallel rank from the prefill
		// node's GPU to its decode peer, each NIC serving its own socket's
		// GPUs.
		t.kv = make([]*fabric.Flow, cfg.TensorParallel)
		for i := range t.kv {
			src := topology.GPU{Node: pre, Index: i}
			dst := topology.GPU{Node: dec, Index: i}
			route := cluster.GPUToRemoteGPUVia(src, dst, src.Socket(), dst.Socket())
			t.kv[i] = route.Flow(fmt.Sprintf("kv-ship-g%d", i), 0)
		}
	}
	return t
}

// prefill walks q's prompt pass on node pre and, when disaggregated, the
// blocking KV shipment sized as each rank's KV shard of the prompt bucket.
func (t *testbedSteps) prefill(q *request, pre, _ int, next func()) bool {
	pb := promptBucket(q.prompt)
	w := t.passes[pre].begin(next)
	w.sleep(t.r.prefillTime(pb))
	t.allReduces(w, t.preGroup, pb)
	if t.kv != nil {
		for _, f := range t.kv {
			f.Bytes = float64(pb) * t.r.kvPerTok
		}
		w.flows(t.kv)
	}
	return w.run()
}

// decode walks one decode step of a bn-request batch whose longest context
// lands in bucket cb. The scheduler reaches it through stepModel, which
// hides it from simlint's call graph, hence its own steady marker.
//
//lint:steady
func (t *testbedSteps) decode(node, bn, cb int, next func()) bool {
	w := t.passes[node].begin(next)
	w.sleep(t.r.decodeTime(bn, cb))
	t.allReduces(w, t.decGroup, bn)
	return w.run()
}

// allReduces adds a pass's two aggregated tensor-parallel all-reduces over
// tokens tokens on g.
func (t *testbedSteps) allReduces(w *walker, g *collective.Group, tokens int) {
	if t.r.cfg.TensorParallel > 1 {
		payload := tpAllReducePayload(t.r.cfg.Model, tokens)
		w.allReduce(g, payload)
		w.allReduce(g, payload)
	}
}
