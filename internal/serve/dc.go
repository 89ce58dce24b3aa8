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
// Every node runs exactly one serving proc, one pass at a time, and the
// prefill pool and the decode replicas are disjoint, so each node owns one
// preallocated NVSwitch flow and each prefill node one KV flow with a
// reusable path buffer: a flow is restarted only after it has completed,
// and warm passes allocate nothing.
type dcSteps struct {
	r   *Runner
	sc  *topology.DCShardedCluster
	net *fabric.Network

	nv []fabric.Flow // per node: its tensor-parallel NVSwitch traffic
	kv []fabric.Flow // per prefill node (the first nodes): its KV shipment
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
		r:   r,
		sc:  sc,
		net: sc.Groups[0].Net,
		nv:  make([]fabric.Flow, sc.Nodes()),
		kv:  make([]fabric.Flow, len(r.prefills)),
	}
	nvLinks := make([]*fabric.Link, sc.Nodes())
	for n := range d.nv {
		nvLinks[n] = sc.NVFabric(n)
		d.nv[n].Name = fmt.Sprintf("serve-nv-n%d", n)
		d.nv[n].Path = nvLinks[n : n+1 : n+1]
	}
	for _, pf := range r.prefills {
		d.kv[pf.node].Name = fmt.Sprintf("serve-kv-n%d", pf.node)
	}
	return d, nil
}

// prefill models a prompt pass on node pre: the roofline kernel sleep plus
// the NVSwitch collective traffic, then the KV shipment to dec.
func (d *dcSteps) prefill(_ *sim.Proc, w *sim.Waiter, q *request, pre, dec int) {
	pb := promptBucket(q.prompt)
	d.sleep(w, d.r.prefillTime(pb))
	d.nvCollective(w, pre, pb)
	if pre != dec {
		d.shipKV(w, pre, dec, q)
	}
}

// decode models one decode step on node: the memory-bound roofline sleep
// (weights plus the batch's KV reads) and the NVSwitch collective traffic.
// The scheduler reaches it through stepModel, which hides it from simlint's
// call graph, hence its own steady marker.
//
//lint:steady
func (d *dcSteps) decode(_ *sim.Proc, w *sim.Waiter, node, bn, cb int) {
	d.sleep(w, d.r.decodeTime(bn, cb))
	d.nvCollective(w, node, bn)
}

// sleep blocks w's proc for dur; a zero duration returns at once, as
// Proc.Sleep does.
func (d *dcSteps) sleep(w *sim.Waiter, dur sim.Time) {
	if dur > 0 {
		d.r.eng.Schedule(dur, w.DoneFunc())
		w.Wait()
	}
}

// nvCollective blocks on the replica's aggregated tensor-parallel all-reduce
// traffic on the node's NVSwitch domain: two all-reduces per pass, each
// moving 2·(tp−1)·payload bytes through the fabric.
func (d *dcSteps) nvCollective(w *sim.Waiter, node, tokens int) {
	tp := d.r.cfg.TensorParallel
	if tp < 2 {
		return
	}
	f := &d.nv[node]
	f.Bytes = 4 * float64(tp-1) * tpAllReducePayload(d.r.cfg.Model, tokens)
	d.net.StartFlow(f, w.DoneFunc())
	w.Wait()
}

// shipKV blocks on the KV-cache transfer from prefill node to decode node
// over the request's rail (requests stripe the rails round-robin). The full
// source-NIC → fabric → destination-NIC path is one fluid flow; the path's
// extra switching latency is paid as a sleep up front.
func (d *dcSteps) shipKV(w *sim.Waiter, from, to int, q *request) {
	src, dst, extra := d.sc.RailPath(from, to, q.id%d.sc.Cfg.Rails)
	d.sleep(w, extra)
	f := &d.kv[from]
	f.Path = append(append(f.Path[:0], src...), dst...)
	f.Bytes = float64(q.prompt) * d.r.kvPerTok * float64(d.r.cfg.TensorParallel)
	d.net.StartFlow(f, w.DoneFunc())
	w.Wait()
}
