// Package schedule is the workload-agnostic schedule IR: a compiled program
// of typed operations with explicit virtual-stream dependencies, replayed by
// a single callback-state-machine executor with pooled per-op resources so
// steady-state replay allocates nothing.
//
// The IR was born inside internal/train (PR 4) as the compilation target of
// the training strategies; this package hoists it behind a neutral API so
// any workload can emit programs onto the same executor. A program is pure
// data — durations, payload bytes, queue indices — and everything bound to
// one live cluster (flow routes, NVMe volumes, the memory tracker, trace
// sinks) is resolved at executor construction through the Env interface, so
// one compiled Schedule serves every run and every concurrent executor of
// the same shape. internal/train is its client: a testbed training run
// replays its start-up and iteration programs through it.
package schedule

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
	"llmbw/internal/trace"
)

// Rewrite selects a schedule-level ablation applied after compilation. A
// rewrite transforms the op list before execution — the schedule IR's whole
// point: what-if studies become program transformations instead of forked
// workload implementations.
type Rewrite int

// Supported rewrites.
const (
	RewriteNone Rewrite = iota
	// RewriteSerializeComm converts every stream-overlapped collective into
	// an exposed synchronous one at the same program point and drops the now
	// meaningless stream waits/barriers: the program with communication/
	// computation overlap ablated away. The overlap gain of DDP's gradient
	// bucketing and ZeRO's prefetch pipelines is the difference between a
	// schedule and its serialized rewrite.
	RewriteSerializeComm
)

// String returns the rewrite's display name.
func (rw Rewrite) String() string {
	switch rw {
	case RewriteNone:
		return "none"
	case RewriteSerializeComm:
		return "serialize-comm"
	}
	return fmt.Sprintf("Rewrite(%d)", int(rw))
}

// Kind discriminates schedule ops.
type Kind uint8

// Schedule op kinds. Each op is one building block of a workload's
// iteration and issues the same engine events, in the same order, on every
// replay.
const (
	// OpFlows launches a pooled flow set, fire-and-forget (e.g. the
	// dataloader's host→GPU staging).
	OpFlows Kind = iota
	// OpCompute blocks for a precomputed kernel duration and traces it.
	OpCompute
	// OpOverhead blocks for a fixed untraced duration (framework
	// coordination costs).
	OpOverhead
	// OpCollective runs an exposed synchronous collective on Op.Group (nil =
	// the Env's world group).
	OpCollective
	// OpEnqueue chains an asynchronous collective on a virtual NCCL stream
	// (Op.Queue); Slot >= 0 retains its latch for a later OpWaitSlot.
	OpEnqueue
	// OpWaitSlot blocks until the collective whose latch Op.Slot retains
	// has fired.
	OpWaitSlot
	// OpBarrier blocks until the stream's tail operation completes.
	OpBarrier
	// OpXfer runs a blocking pooled flow set sized by Op.Bytes (offload
	// staging copies).
	OpXfer
	// OpPacedFlows starts a fire-and-forget pooled flow set and blocks for
	// Op.Dur (a paced host-side step whose memory traffic spreads over its
	// duration, e.g. CPUAdam).
	OpPacedFlows
	// OpNVMeIO runs a staged NVMe transfer on every target, blocking until
	// the slowest completes.
	OpNVMeIO
	// OpMemAlloc / OpMemFree adjust the Env's runtime memory tracker.
	OpMemAlloc
	OpMemFree
	// OpMultiCollective runs one collective concurrently on several disjoint
	// groups (per-stage tensor-parallel collectives).
	OpMultiCollective
	// OpRouteXfer runs a blocking pooled flow set over explicit routes
	// (pipeline boundary activations).
	OpRouteXfer
)

// Op is one operation of a compiled schedule. Dependencies are program order
// plus the explicit stream edges: an OpEnqueue's collective is ordered after
// the previous operation on its queue, and OpWaitSlot/OpBarrier join a
// stream back into program order.
type Op struct {
	Kind   Kind
	Phase  trace.Phase
	TK     trace.Kind // trace kind for traced ops
	Traced bool

	Col     collective.Op
	Group   *collective.Group   // OpCollective target; nil = world
	Groups  []*collective.Group // OpMultiCollective targets
	Routes  []topology.Route    // OpRouteXfer routes
	Payload float64             // collective payload bytes
	Limit   float64             // per-hop rate cap (exposed collectives)
	Rings   int8                // NCCL ring count (exposed collectives)
	Queue   int8                // stream index for OpEnqueue/OpWaitSlot/OpBarrier
	Slot    int16               // latch slot OpEnqueue retains into, OpWaitSlot waits on; -1 = fire-and-forget
	Write   bool                // OpNVMeIO direction
	Dur     sim.Time            // OpCompute/OpOverhead/OpPacedFlows duration
	Bytes   float64             // OpMemAlloc/OpMemFree/OpXfer/OpNVMeIO/OpRouteXfer bytes
	Params  int64               // OpPacedFlows per-rank parameter count
}

// QueueSpec describes one virtual NCCL stream of the schedule.
type QueueSpec struct {
	Limit float64
	Rings int8
}

// Schedule is a compiled program. It is pure data: executors never write
// through the op list, so one compiled Schedule may be shared across caches,
// runs and concurrent executors.
type Schedule struct {
	Ops    []Op
	Queues []QueueSpec
	Slots  int // retained-latch slot count
}

// Apply returns the schedule transformed by the rewrite (the receiver is
// never mutated; RewriteNone returns it unchanged).
func (s *Schedule) Apply(rw Rewrite) *Schedule {
	switch rw {
	case RewriteNone:
		return s
	case RewriteSerializeComm:
		return s.serializeComm()
	}
	panic(fmt.Sprintf("schedule: unknown rewrite %d", int(rw)))
}

// serializeComm rewrites every stream-overlapped collective into an exposed
// synchronous one issued at its enqueue point, dropping stream waits and
// barriers (their ordering is now implied by program order). The streams'
// rate limits and ring counts carry over unchanged.
func (s *Schedule) serializeComm() *Schedule {
	out := &Schedule{Queues: s.Queues}
	out.Ops = make([]Op, 0, len(s.Ops))
	for _, op := range s.Ops {
		switch op.Kind {
		case OpEnqueue:
			q := s.Queues[op.Queue]
			op.Kind = OpCollective
			op.Group = nil
			op.Limit = q.Limit
			op.Rings = q.Rings
			op.Slot = -1
			out.Ops = append(out.Ops, op)
		case OpWaitSlot, OpBarrier:
			// Dropped: program order already sequences the serialized
			// collectives.
		default:
			out.Ops = append(out.Ops, op)
		}
	}
	return out
}

// TraceKind maps a collective op to its timeline span kind.
func TraceKind(op collective.Op) trace.Kind {
	switch op {
	case collective.AllReduce:
		return trace.NCCLAllReduce
	case collective.AllGather:
		return trace.NCCLAllGather
	case collective.ReduceScatter:
		return trace.NCCLReduceScatter
	case collective.Reduce:
		return trace.NCCLReduce
	case collective.Broadcast:
		return trace.NCCLBroadcast
	}
	return trace.NCCLAllReduce
}

// Builder accumulates a schedule's ops; emits inherit the builder's current
// Phase. Workload compilers embed it and layer their domain helpers (FLOP →
// duration conversion, chunking policies) on top of these primitive emits.
type Builder struct {
	S     *Schedule
	Phase trace.Phase
}

// NewBuilder returns a builder over a fresh empty schedule.
func NewBuilder() *Builder { return &Builder{S: &Schedule{}} }

// Emit appends op, stamping the builder's current phase.
func (b *Builder) Emit(op Op) {
	op.Phase = b.Phase
	b.S.Ops = append(b.S.Ops, op)
}

// Flows emits a fire-and-forget pooled flow-set launch.
func (b *Builder) Flows() { b.Emit(Op{Kind: OpFlows}) }

// Compute emits a traced blocking compute span of duration d.
func (b *Builder) Compute(tk trace.Kind, d sim.Time) {
	b.Emit(Op{Kind: OpCompute, TK: tk, Traced: true, Dur: d})
}

// Overhead emits an untraced blocking span of duration d.
func (b *Builder) Overhead(d sim.Time) { b.Emit(Op{Kind: OpOverhead, Dur: d}) }

// Alloc emits a memory-tracker allocation.
func (b *Builder) Alloc(bytes float64) { b.Emit(Op{Kind: OpMemAlloc, Bytes: bytes}) }

// Free emits a memory-tracker release.
func (b *Builder) Free(bytes float64) { b.Emit(Op{Kind: OpMemFree, Bytes: bytes}) }

// Sync emits an exposed synchronous collective on the world group.
func (b *Builder) Sync(col collective.Op, payload, limit float64, rings int) {
	b.Emit(Op{Kind: OpCollective, Col: col, TK: TraceKind(col), Traced: true,
		Payload: payload, Limit: limit, Rings: int8(rings)})
}

// SyncOn emits an exposed synchronous collective on an explicit group.
func (b *Builder) SyncOn(g *collective.Group, col collective.Op, payload, limit float64, rings int) {
	b.Emit(Op{Kind: OpCollective, Col: col, Group: g, TK: TraceKind(col), Traced: true,
		Payload: payload, Limit: limit, Rings: int8(rings)})
}

// NewQueue declares a virtual NCCL stream and returns its index.
func (b *Builder) NewQueue(limit float64, rings int) int8 {
	b.S.Queues = append(b.S.Queues, QueueSpec{Limit: limit, Rings: int8(rings)})
	return int8(len(b.S.Queues) - 1)
}

// Enqueue chains a fire-and-forget collective on stream q.
func (b *Builder) Enqueue(q int8, col collective.Op, payload float64) {
	b.Emit(Op{Kind: OpEnqueue, Queue: q, Col: col, TK: TraceKind(col), Traced: true,
		Payload: payload, Slot: -1})
}

// EnqueueSlot chains a collective on stream q retaining its latch in a new
// slot, returned for a later WaitSlot.
func (b *Builder) EnqueueSlot(q int8, col collective.Op, payload float64) int16 {
	slot := int16(b.S.Slots)
	b.S.Slots++
	b.Emit(Op{Kind: OpEnqueue, Queue: q, Col: col, TK: TraceKind(col), Traced: true,
		Payload: payload, Slot: slot})
	return slot
}

// WaitSlot blocks the program until the collective retained in slot fires.
func (b *Builder) WaitSlot(q int8, slot int16) {
	b.Emit(Op{Kind: OpWaitSlot, Queue: q, Slot: slot})
}

// Barrier blocks the program until stream q's tail completes.
func (b *Builder) Barrier(q int8) { b.Emit(Op{Kind: OpBarrier, Queue: q}) }

// Xfer emits a traced blocking flow-set transfer of bytes (the Env's flow
// builder decides the actual routes).
func (b *Builder) Xfer(tk trace.Kind, bytes float64) {
	b.Emit(Op{Kind: OpXfer, TK: tk, Traced: true, Bytes: bytes})
}

// Paced emits a traced paced step: a fire-and-forget flow set plus a
// blocking duration d.
func (b *Builder) Paced(tk trace.Kind, d sim.Time, params int64) {
	b.Emit(Op{Kind: OpPacedFlows, TK: tk, Traced: true, Dur: d, Params: params})
}

// NVMe emits a traced blocking staged NVMe transfer.
func (b *Builder) NVMe(tk trace.Kind, bytes float64, write bool) {
	b.Emit(Op{Kind: OpNVMeIO, TK: tk, Traced: true, Bytes: bytes, Write: write})
}

// Multi emits one collective run concurrently on several disjoint groups.
func (b *Builder) Multi(col collective.Op, groups []*collective.Group, payload, limit float64, rings int) {
	b.Emit(Op{Kind: OpMultiCollective, Col: col, TK: TraceKind(col), Traced: true,
		Groups: groups, Payload: payload, Limit: limit, Rings: int8(rings)})
}

// RouteXfer emits a traced blocking transfer of bytes over explicit routes.
func (b *Builder) RouteXfer(tk trace.Kind, routes []topology.Route, bytes float64) {
	b.Emit(Op{Kind: OpRouteXfer, TK: tk, Traced: true, Routes: routes, Bytes: bytes})
}
