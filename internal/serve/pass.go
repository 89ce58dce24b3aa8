package serve

import (
	"llmbw/internal/collective"
	"llmbw/internal/fabric"
	"llmbw/internal/model"
	"llmbw/internal/sim"
)

// Both fabrics' step models run a serving pass the same way: as a walk over
// at most four legs — roofline sleeps, flow batches and dual-ring
// all-reduces — on the node's walker, one pass at a time per node, so the
// steady token loop allocates nothing. They share the roofline kernel times
// below and differ only in the legs they add.

// promptBucket quantizes a prompt length to its bucket (rounded up, never
// zero).
func promptBucket(tokens int) int {
	b := (tokens + PromptBucket - 1) / PromptBucket * PromptBucket
	if b < PromptBucket {
		b = PromptBucket
	}
	return b
}

// ctxBucketIdx quantizes a context length to its bucket index (≥ 1); the
// decode step assumes the bucket's upper edge, slightly conservative.
func ctxBucketIdx(tokens int) int {
	b := (tokens + CtxBucket - 1) / CtxBucket
	if b < 1 {
		b = 1
	}
	return b
}

// prefillFLOPs returns the total forward FLOPs of a prompt pass over t
// tokens: the 2·Ψ GEMM work per token plus the quadratic attention-score
// term (4·t²·h per layer, the part that grows with context).
func prefillFLOPs(g model.GPT, t int) float64 {
	tf := float64(t)
	return 2*float64(g.Params())*tf +
		4*tf*tf*float64(g.Hidden)*float64(g.Layers)
}

// tpAllReducePayload returns the per-rank payload of ONE of the two
// tensor-parallel all-reduces a transformer layer issues per forward pass,
// aggregated over all layers: t·h FP16 activations per layer.
func tpAllReducePayload(g model.GPT, t int) float64 {
	return float64(g.Layers) * float64(t) * float64(g.Hidden) * model.FP16Bytes
}

// prefillTime returns the roofline time of a prompt pass over a pb-token
// bucket on one tensor-parallel rank: compute-bound for realistic prompts,
// with HBM traffic of the weight sweep plus the KV writes of the new tokens.
func (r *Runner) prefillTime(pb int) sim.Time {
	flops := prefillFLOPs(r.cfg.Model, pb) / float64(r.cfg.TensorParallel)
	bytes := r.weightBytes + float64(pb)*r.kvPerTok
	return r.gpu.RooflineTime(flops, bytes)
}

// decodeTime returns the roofline time of one decode step of a batch of
// size batch whose longest context lands in bucket cb: memory-bound, the
// weight sweep plus the batch's KV reads at the bucket's upper edge.
func (r *Runner) decodeTime(batch, cb int) sim.Time {
	flops := 2 * float64(r.cfg.Model.Params()) * float64(batch) / float64(r.cfg.TensorParallel)
	bytes := r.weightBytes + float64(batch)*float64(cb*CtxBucket)*r.kvPerTok
	return r.gpu.RooflineTime(flops, bytes)
}

// walker is one node's serving pass: a callback machine over the pass's
// legs, run in order. A sleep of zero is skipped, so a pass with nothing to
// wait for completes inline.
type walker struct {
	eng    *sim.Engine
	net    *fabric.Network
	legs   [4]leg
	n, i   int    // legs set, next leg
	left   int    // flows of the running batch still in flight
	next   func() // the scheduler's continuation
	resume func() // legDone, bound once
	flowFn func() // flowDone, bound once
}

// leg is a dual-ring all-reduce of payload bytes when group is set, a flow
// batch when flows is set, otherwise a roofline sleep of dur.
type leg struct {
	dur     sim.Time
	flows   []*fabric.Flow
	group   *collective.Group
	payload float64
}

// newWalkers returns one walker per node, each bound to eng and net.
func newWalkers(nodes int, eng *sim.Engine, net *fabric.Network) []walker {
	ws := make([]walker, nodes)
	for i := range ws {
		w := &ws[i]
		w.eng, w.net = eng, net
		w.resume = w.legDone
		w.flowFn = w.flowDone
	}
	return ws
}

// begin resets the walker for a new pass that continues with next.
func (w *walker) begin(next func()) *walker {
	w.n, w.i, w.next = 0, 0, next
	return w
}

func (w *walker) sleep(dur sim.Time) {
	w.legs[w.n] = leg{dur: dur}
	w.n++
}

// flows adds a batch admitted in one StartFlows call; the flows are
// restarted only after the batch has completed.
func (w *walker) flows(fs []*fabric.Flow) {
	w.legs[w.n] = leg{flows: fs}
	w.n++
}

// allReduce adds a dual-ring all-reduce of payload bytes on g.
func (w *walker) allReduce(g *collective.Group, payload float64) {
	w.legs[w.n] = leg{group: g, payload: payload}
	w.n++
}

// run starts legs from the next one until a leg blocks — an all-reduce, a
// flow batch, or a sleep longer than zero — and reports whether the pass
// ended instead.
//
//lint:steady
func (w *walker) run() bool {
	for w.i < w.n {
		l := &w.legs[w.i]
		w.i++
		switch {
		case l.group != nil:
			l.group.StartRings(collective.AllReduce, l.payload, 0, 2, w.resume)
			return false
		case l.flows != nil:
			w.left = len(l.flows)
			w.net.StartFlows(l.flows, w.flowFn)
			return false
		case l.dur > 0:
			w.eng.Schedule(l.dur, w.resume)
			return false
		}
	}
	return true
}

// flowDone counts a batch's flows back in and continues the pass after the
// last.
//
//lint:steady
func (w *walker) flowDone() {
	w.left--
	if w.left == 0 {
		w.legDone()
	}
}

// legDone continues the pass when a leg ends, and the scheduler when the
// pass does.
//
//lint:steady
func (w *walker) legDone() {
	if w.run() {
		w.next()
	}
}
