package serve

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// dcSteps is the step model of a generated datacenter fabric. Like
// internal/train's datacenter path, it is deliberately coarser than the
// testbed's: each node is one tensor-parallel serving replica whose passes
// are roofline sleeps plus NVSwitch-domain flows, and a disaggregated
// request's KV cache crosses the rail fabric to its decode replica — the
// NIC-bandwidth-sensitive path the what-if study sweeps. The fluid KV and
// NVSwitch flows form one fair-share domain, so the fabric is built on one
// shard.
//
// Every node runs exactly one serving machine, one pass at a time, and the
// prefill pool and the decode replicas are disjoint, so each node owns one
// walker, one preallocated NVSwitch flow and, on a prefill node, one KV
// flow whose path buffer each shipment refills: a flow is restarted only
// after it has completed, and once the buffer has grown to the longest
// route, passes allocate nothing.
type dcSteps struct {
	r  *Runner
	sc *topology.DCShardedCluster

	passes []walker       // per node: its pass in flight
	nv     []*fabric.Flow // per node: its tensor-parallel NVSwitch traffic
	kv     []*fabric.Flow // per prefill node (the first nodes): its KV shipment
}

// newDCSteps builds the fabric of cfg and binds r to its engine.
func newDCSteps(r *Runner, cfg topology.DCConfig) (*dcSteps, error) {
	cfg.Window = r.cfg.Window
	if r.cfg.NICBW > 0 {
		cfg.NICBW = r.cfg.NICBW
	}
	sc, err := topology.NewDCSharded(cfg, 1)
	if err != nil {
		return nil, err
	}
	r.eng = sc.EngineOf(0)
	r.runSim = sc.RunSim
	d := &dcSteps{
		r:      r,
		sc:     sc,
		passes: newWalkers(sc.Nodes(), r.eng, sc.Groups[0].Net),
		nv:     make([]*fabric.Flow, sc.Nodes()),
		kv:     make([]*fabric.Flow, len(r.prefills)),
	}
	flows := make([]fabric.Flow, len(d.nv)+len(d.kv))
	nvLinks := make([]*fabric.Link, sc.Nodes())
	for n := range d.nv {
		nvLinks[n] = sc.NVFabric(n)
		f := &flows[n]
		f.Name = fmt.Sprintf("serve-nv-n%d", n)
		f.Path = nvLinks[n : n+1 : n+1]
		d.nv[n] = f
	}
	for _, pf := range r.prefills {
		f := &flows[len(d.nv)+pf.node]
		f.Name = fmt.Sprintf("serve-kv-n%d", pf.node)
		d.kv[pf.node] = f
	}
	return d, nil
}

// prefill models a prompt pass on node pre: the roofline kernel sleep plus
// the NVSwitch collective traffic, then the KV shipment to dec.
func (d *dcSteps) prefill(q *request, pre, dec int, next func()) bool {
	pb := promptBucket(q.prompt)
	w := d.passes[pre].begin(next)
	w.sleep(d.r.prefillTime(pb))
	d.nvCollective(w, pre, pb)
	if pre != dec {
		d.shipKV(w, pre, dec, q)
	}
	return w.run()
}

// decode models one decode step on node: the memory-bound roofline sleep
// (weights plus the batch's KV reads) and the NVSwitch collective traffic.
// The scheduler reaches it through stepModel, which hides it from simlint's
// call graph, hence its own steady marker.
//
//lint:steady
func (d *dcSteps) decode(node, bn, cb int, next func()) bool {
	w := d.passes[node].begin(next)
	w.sleep(d.r.decodeTime(bn, cb))
	d.nvCollective(w, node, bn)
	return w.run()
}

// nvCollective adds the replica's aggregated tensor-parallel all-reduce
// traffic on the node's NVSwitch domain: two all-reduces per pass, each
// moving 2·(tp−1)·payload bytes through the fabric.
func (d *dcSteps) nvCollective(w *walker, node, tokens int) {
	tp := d.r.cfg.TensorParallel
	if tp < 2 {
		return
	}
	d.nv[node].Bytes = 4 * float64(tp-1) * tpAllReducePayload(d.r.cfg.Model, tokens)
	w.flows(d.nv[node : node+1 : node+1])
}

// shipKV adds the KV-cache transfer from prefill node to decode node over
// the request's rail (requests stripe the rails round-robin). The full
// source-NIC → fabric → destination-NIC path is one fluid flow, laid into
// the flow's own path buffer; the path's extra switching latency is paid as
// a sleep up front.
func (d *dcSteps) shipKV(w *walker, from, to int, q *request) {
	f := d.kv[from]
	var extra sim.Time
	f.Path, _, extra = d.sc.AppendRailPath(f.Path[:0], from, to, q.id%d.sc.Cfg.Rails)
	w.sleep(extra)
	f.Bytes = float64(q.prompt) * d.r.kvPerTok * float64(d.r.cfg.TensorParallel)
	w.flows(d.kv[from : from+1 : from+1])
}
