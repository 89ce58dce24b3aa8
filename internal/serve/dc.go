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
type dcSteps struct {
	r   *Runner
	sc  *topology.DCShardedCluster
	net *fabric.Network
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
	return &dcSteps{r: r, sc: sc, net: sc.Groups[0].Net}, nil
}

// prefill models a prompt pass on node pre: the roofline kernel sleep plus
// the NVSwitch collective traffic, then the KV shipment to dec.
func (d *dcSteps) prefill(p *sim.Proc, _ *sim.Waiter, q *request, pre, dec int) {
	pb := promptBucket(q.prompt)
	p.Sleep(d.r.prefillTime(pb))
	d.nvCollective(p, pre, pb)
	if pre != dec {
		d.shipKV(p, pre, dec, q)
	}
}

// decode models one decode step on node: the memory-bound roofline sleep
// (weights plus the batch's KV reads) and the NVSwitch collective traffic.
func (d *dcSteps) decode(p *sim.Proc, _ *sim.Waiter, node, bn, cb int) {
	p.Sleep(d.r.decodeTime(bn, cb))
	d.nvCollective(p, node, bn)
}

// nvCollective awaits the replica's aggregated tensor-parallel all-reduce
// traffic on the node's NVSwitch domain: two all-reduces per pass, each
// moving 2·(tp−1)·payload bytes through the fabric.
func (d *dcSteps) nvCollective(p *sim.Proc, node, tokens int) {
	tp := d.r.cfg.TensorParallel
	if tp < 2 {
		return
	}
	bytes := 4 * float64(tp-1) * tpAllReducePayload(d.r.cfg.Model, tokens)
	f := &fabric.Flow{
		Name:  fmt.Sprintf("serve-nv-n%d", node),
		Path:  []*fabric.Link{d.sc.NVFabric(node)},
		Bytes: bytes,
	}
	p.Await(func(resume func()) { d.net.StartFlow(f, resume) })
}

// shipKV awaits the KV-cache transfer from prefill node to decode node over
// the request's rail (requests stripe the rails round-robin). The full
// source-NIC → fabric → destination-NIC path is one fluid flow; the path's
// extra switching latency is paid as a sleep up front.
func (d *dcSteps) shipKV(p *sim.Proc, from, to int, q *request) {
	src, dst, extra := d.sc.RailPath(from, to, q.id%d.sc.Cfg.Rails)
	if extra > 0 {
		p.Sleep(extra)
	}
	path := make([]*fabric.Link, 0, len(src)+len(dst))
	path = append(path, src...)
	path = append(path, dst...)
	f := &fabric.Flow{
		Name:  fmt.Sprintf("serve-kv-r%d", q.id),
		Path:  path,
		Bytes: float64(q.prompt) * d.r.kvPerTok * float64(d.r.cfg.TensorParallel),
	}
	p.Await(func(resume func()) { d.net.StartFlow(f, resume) })
}
