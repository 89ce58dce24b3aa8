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
// pass record, one preallocated NVSwitch flow and, on a prefill node, one KV
// flow with a reusable path buffer: a flow is restarted only after it has
// completed, and warm passes allocate nothing.
type dcSteps struct {
	r   *Runner
	sc  *topology.DCShardedCluster
	net *fabric.Network

	passes []dcPass      // per node: its pass in flight
	nv     []fabric.Flow // per node: its tensor-parallel NVSwitch traffic
	kv     []fabric.Flow // per prefill node (the first nodes): its KV shipment
}

// dcPass is one node's serving pass: a callback machine over the pass's
// legs — roofline sleeps and flows, run in order — that skips a sleep of
// zero, as a pass with nothing to wait for completes inline.
type dcPass struct {
	eng    *sim.Engine
	net    *fabric.Network
	legs   [4]dcLeg
	n, i   int    // legs set, next leg
	next   func() // the scheduler's continuation
	resume func() // legDone, bound once
}

// dcLeg is a flow when flow is set, otherwise a roofline sleep of dur.
type dcLeg struct {
	dur  sim.Time
	flow *fabric.Flow
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
		net:    sc.Groups[0].Net,
		passes: make([]dcPass, sc.Nodes()),
		nv:     make([]fabric.Flow, sc.Nodes()),
		kv:     make([]fabric.Flow, len(r.prefills)),
	}
	for n := range d.passes {
		p := &d.passes[n]
		p.eng, p.net = r.eng, d.net
		p.resume = p.legDone
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
func (d *dcSteps) prefill(q *request, pre, dec int, next func()) bool {
	pb := promptBucket(q.prompt)
	p := d.begin(pre, next)
	p.sleep(d.r.prefillTime(pb))
	d.nvCollective(p, pre, pb)
	if pre != dec {
		d.shipKV(p, pre, dec, q)
	}
	return p.run()
}

// decode models one decode step on node: the memory-bound roofline sleep
// (weights plus the batch's KV reads) and the NVSwitch collective traffic.
// The scheduler reaches it through stepModel, which hides it from simlint's
// call graph, hence its own steady marker.
//
//lint:steady
func (d *dcSteps) decode(node, bn, cb int, next func()) bool {
	p := d.begin(node, next)
	p.sleep(d.r.decodeTime(bn, cb))
	d.nvCollective(p, node, bn)
	return p.run()
}

// begin resets node's pass record for a new pass that continues with next.
func (d *dcSteps) begin(node int, next func()) *dcPass {
	p := &d.passes[node]
	p.n, p.i, p.next = 0, 0, next
	return p
}

// nvCollective adds the replica's aggregated tensor-parallel all-reduce
// traffic on the node's NVSwitch domain: two all-reduces per pass, each
// moving 2·(tp−1)·payload bytes through the fabric.
func (d *dcSteps) nvCollective(p *dcPass, node, tokens int) {
	tp := d.r.cfg.TensorParallel
	if tp < 2 {
		return
	}
	f := &d.nv[node]
	f.Bytes = 4 * float64(tp-1) * tpAllReducePayload(d.r.cfg.Model, tokens)
	p.flow(f)
}

// shipKV adds the KV-cache transfer from prefill node to decode node over
// the request's rail (requests stripe the rails round-robin). The full
// source-NIC → fabric → destination-NIC path is one fluid flow; the path's
// extra switching latency is paid as a sleep up front.
func (d *dcSteps) shipKV(p *dcPass, from, to int, q *request) {
	src, dst, extra := d.sc.RailPath(from, to, q.id%d.sc.Cfg.Rails)
	p.sleep(extra)
	f := &d.kv[from]
	f.Path = append(append(f.Path[:0], src...), dst...)
	f.Bytes = float64(q.prompt) * d.r.kvPerTok * float64(d.r.cfg.TensorParallel)
	p.flow(f)
}

func (p *dcPass) sleep(dur sim.Time) {
	p.legs[p.n] = dcLeg{dur: dur}
	p.n++
}

func (p *dcPass) flow(f *fabric.Flow) {
	p.legs[p.n] = dcLeg{flow: f}
	p.n++
}

// run starts legs from the next one until a leg blocks — a flow, or a
// sleep longer than zero — and reports whether the pass ended instead.
//
//lint:steady
func (p *dcPass) run() bool {
	for p.i < p.n {
		l := &p.legs[p.i]
		p.i++
		if l.flow != nil {
			p.net.StartFlow(l.flow, p.resume)
			return false
		}
		if l.dur > 0 {
			p.eng.Schedule(l.dur, p.resume)
			return false
		}
	}
	return true
}

// legDone continues the pass when a leg ends, and the scheduler when the
// pass does.
//
//lint:steady
func (p *dcPass) legDone() {
	if p.run() {
		p.next()
	}
}
