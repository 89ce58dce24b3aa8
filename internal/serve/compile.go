package serve

import (
	"llmbw/internal/collective"
	"llmbw/internal/model"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/trace"
)

// The serving compilers are the second client of the schedule IR (after
// internal/train's strategy compilers): on the testbed, a prefill pass and a
// decode step are each a tiny compiled program, replayed by the pooled
// executor so the steady token loop allocates nothing. Programs are keyed by
// shape — the prompt bucket for prefill, (batch, context bucket) for
// decode — and compiled eagerly for every shape the generated workload can
// present, so the serving loops only ever look programs up. Both fabrics'
// step models share the roofline kernel times below.

// promptBucket quantizes a prompt length to its program bucket (rounded up,
// never zero).
func promptBucket(tokens int) int {
	b := (tokens + PromptBucket - 1) / PromptBucket * PromptBucket
	if b < PromptBucket {
		b = PromptBucket
	}
	return b
}

// ctxBucketIdx quantizes a context length to its bucket index (≥ 1); the
// decode program assumes the bucket's upper edge, slightly conservative.
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

// compilePrefill builds the testbed's prefill program for a prompt bucket of
// pb tokens: one roofline kernel span, the two aggregated tensor-parallel
// all-reduces, and — under disaggregated placement — the blocking KV-cache
// shipment to the decode node, sized as each rank's KV shard. Cold path:
// runs once per bucket at runner construction.
//
//lint:cold
func (t *testbedSteps) compilePrefill(pb int) *schedule.Schedule {
	b := schedule.NewBuilder()
	b.Phase = trace.PhasePrefill
	b.Compute(trace.Gemm, t.r.prefillTime(pb))
	if t.r.cfg.TensorParallel > 1 {
		payload := tpAllReducePayload(t.r.cfg.Model, pb)
		b.SyncOn(t.preGroup, collective.AllReduce, payload, 0, 2)
		b.SyncOn(t.preGroup, collective.AllReduce, payload, 0, 2)
	}
	if t.pre != t.dec {
		b.Xfer(trace.OffloadCopy, float64(pb)*t.r.kvPerTok)
	}
	return b.S
}

// compileDecode builds the testbed's decode-step program for a batch of
// size batch whose longest context lands in bucket cb: one roofline span
// and the two aggregated per-token tensor-parallel all-reduces. Cold path:
// runs once per (batch, bucket) shape at runner construction.
//
//lint:cold
func (t *testbedSteps) compileDecode(batch, cb int) *schedule.Schedule {
	b := schedule.NewBuilder()
	b.Phase = trace.PhaseDecode
	b.Compute(trace.Gemm, t.r.decodeTime(batch, cb))
	if t.r.cfg.TensorParallel > 1 {
		payload := tpAllReducePayload(t.r.cfg.Model, batch)
		b.SyncOn(t.decGroup, collective.AllReduce, payload, 0, 2)
		b.SyncOn(t.decGroup, collective.AllReduce, payload, 0, 2)
	}
	return b.S
}
