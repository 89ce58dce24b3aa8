package schedule

import (
	"reflect"
	"testing"

	"llmbw/internal/collective"
	"llmbw/internal/sim"
	"llmbw/internal/trace"
)

// buildProgram emits one op of every kind the rewrite treats specially,
// interleaved with ops it must keep, across two phases and two streams.
func buildProgram() (*Builder, []int16) {
	b := NewBuilder()
	b.Phase = trace.PhaseForward
	q0 := b.NewQueue(10e9, 2)
	q1 := b.NewQueue(25e9, 1)
	b.Flows()
	b.Compute(trace.Gemm, 3*sim.Microsecond)
	s0 := b.EnqueueSlot(q0, collective.AllGather, 1e6)
	b.Alloc(64)
	b.Phase = trace.PhaseBackward
	b.Enqueue(q1, collective.ReduceScatter, 2e6)
	b.WaitSlot(q0, s0)
	s1 := b.EnqueueSlot(q1, collective.AllReduce, 3e6)
	b.Sync(collective.Broadcast, 4e6, 5e9, 2)
	b.Barrier(q1)
	b.Overhead(sim.Microsecond)
	b.Free(64)
	return b, []int16{s0, s1}
}

// TestBuilderStampsPhaseSlotsAndQueues: every emit carries the builder's
// phase at the time of the emit; EnqueueSlot numbers slots 0, 1, … and
// counts them; NewQueue returns 0, 1, ….
func TestBuilderStampsPhaseSlotsAndQueues(t *testing.T) {
	b, slots := buildProgram()
	if !reflect.DeepEqual(slots, []int16{0, 1}) || b.S.Slots != 2 {
		t.Errorf("slots %v with Slots=%d, want [0 1] with Slots=2", slots, b.S.Slots)
	}
	if q := b.NewQueue(1, 1); q != 2 || len(b.S.Queues) != 3 {
		t.Errorf("third NewQueue = %d (%d queues), want 2 (3 queues)", q, len(b.S.Queues))
	}
	want := []trace.Phase{
		trace.PhaseForward, trace.PhaseForward, trace.PhaseForward, trace.PhaseForward,
		trace.PhaseBackward, trace.PhaseBackward, trace.PhaseBackward, trace.PhaseBackward,
		trace.PhaseBackward, trace.PhaseBackward, trace.PhaseBackward,
	}
	if len(b.S.Ops) != len(want) {
		t.Fatalf("%d ops, want %d", len(b.S.Ops), len(want))
	}
	for i, op := range b.S.Ops {
		if op.Phase != want[i] {
			t.Errorf("op %d (kind %d) phase %v, want %v", i, op.Kind, op.Phase, want[i])
		}
	}
	if op := b.S.Ops[4]; op.Kind != OpEnqueue || op.Slot != -1 {
		t.Errorf("fire-and-forget Enqueue = kind %d slot %d, want OpEnqueue slot -1", op.Kind, op.Slot)
	}
}

func TestApplyNoneReturnsReceiver(t *testing.T) {
	b, _ := buildProgram()
	if got := b.S.Apply(RewriteNone); got != b.S {
		t.Error("Apply(RewriteNone) did not return the receiver")
	}
}

// TestApplySerializeComm: every enqueue becomes an exposed world collective
// carrying its stream's limit and ring count, stream waits and barriers go,
// every other op stays in order, and the receiver is left untouched.
func TestApplySerializeComm(t *testing.T) {
	b, _ := buildProgram()
	// An enqueue that names a group: the rewrite must retarget it at the
	// world group like every other serialized collective.
	b.Emit(Op{Kind: OpEnqueue, Queue: 0, Col: collective.Reduce, Group: &collective.Group{}, Payload: 5e6, Slot: -1})
	src := b.S
	before := &Schedule{
		Ops:    append([]Op(nil), src.Ops...),
		Queues: append([]QueueSpec(nil), src.Queues...),
		Slots:  src.Slots,
	}

	out := src.Apply(RewriteSerializeComm)
	if out == src {
		t.Fatal("serialize-comm returned the receiver")
	}
	if !reflect.DeepEqual(src, before) {
		t.Error("serialize-comm mutated the receiver")
	}

	var want []Op
	for _, op := range before.Ops {
		switch op.Kind {
		case OpWaitSlot, OpBarrier:
			continue
		case OpEnqueue:
			q := before.Queues[op.Queue]
			op.Kind = OpCollective
			op.Group = nil
			op.Limit = q.Limit
			op.Rings = q.Rings
			op.Slot = -1
		}
		want = append(want, op)
	}
	if !reflect.DeepEqual(out.Ops, want) {
		t.Errorf("serialized ops:\n%+v\nwant:\n%+v", out.Ops, want)
	}
	wantKinds := []Kind{OpFlows, OpCompute, OpCollective, OpMemAlloc, OpCollective,
		OpCollective, OpCollective, OpOverhead, OpMemFree, OpCollective}
	var kinds []Kind
	for _, op := range out.Ops {
		kinds = append(kinds, op.Kind)
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("serialized kinds %v, want %v", kinds, wantKinds)
	}
	// Spot-check the first serialized enqueue against its stream.
	if op := out.Ops[2]; op.Kind != OpCollective || op.Col != collective.AllGather ||
		op.Limit != 10e9 || op.Rings != 2 || op.Slot != -1 || op.Group != nil {
		t.Errorf("serialized slot enqueue = %+v", op)
	}
}

func TestApplyUnknownRewritePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown rewrite did not panic")
		}
	}()
	(&Schedule{}).Apply(Rewrite(99))
}

func TestTraceKindAndRewriteNames(t *testing.T) {
	for col, want := range map[collective.Op]trace.Kind{
		collective.AllReduce:     trace.NCCLAllReduce,
		collective.AllGather:     trace.NCCLAllGather,
		collective.ReduceScatter: trace.NCCLReduceScatter,
		collective.Reduce:        trace.NCCLReduce,
		collective.Broadcast:     trace.NCCLBroadcast,
	} {
		if got := TraceKind(col); got != want {
			t.Errorf("TraceKind(%v) = %v, want %v", col, got, want)
		}
	}
	for rw, want := range map[Rewrite]string{RewriteNone: "none", RewriteSerializeComm: "serialize-comm"} {
		if got := rw.String(); got != want {
			t.Errorf("Rewrite(%d).String() = %q, want %q", int(rw), got, want)
		}
	}
}
