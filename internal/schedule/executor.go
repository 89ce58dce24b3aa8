package schedule

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/fabric"
	"llmbw/internal/nvme"
	"llmbw/internal/sim"
)

// The executor replays a compiled schedule on the sim engine as a callback
// state machine: it executes ops inline until one blocks, parks the program
// counter, and resumes from the blocking op's completion event. Every
// callback is bound once at construction and every per-iteration resource
// (flow sets, stream issue records, collective handles and plans) is pooled,
// so steady-state replay allocates nothing, and every replay issues the same
// engine events in the same order.

// Env binds a schedule to one live run. A Schedule is pure data; everything
// tied to a cluster instance — the engine, the fabric, the communicator, the
// memory tracker, trace sinks, concrete flow routes and NVMe volumes — is
// resolved through the Env once at executor construction. Env methods other
// than FlowBuilder/NVMeTargets are called on the steady replay path and must
// not allocate.
type Env interface {
	// Engine returns the simulation engine the program runs on.
	Engine() *sim.Engine
	// Network returns the fabric all pooled flow sets are admitted to.
	Network() *fabric.Network
	// World returns the default communicator for OpCollective (Group == nil)
	// and every OpEnqueue stream collective.
	World() *collective.Group
	// MemAlloc / MemFree apply OpMemAlloc / OpMemFree to the workload's
	// runtime memory tracker.
	MemAlloc(bytes float64)
	MemFree(bytes float64)
	// TraceOp records the timeline span of a completed traced op (no-op when
	// tracing is disabled).
	TraceOp(op *Op, start, end sim.Time)
	// FlowBuilder returns the flow constructor for a flow-set op (OpFlows,
	// OpXfer, OpPacedFlows, OpRouteXfer). The builder runs only on a pool
	// miss; the flows it returns are recycled for every later replay.
	FlowBuilder(op *Op) func() []*fabric.Flow
	// NVMeTargets resolves the volumes an OpNVMeIO strides across, in
	// deterministic (rank) order.
	NVMeTargets() []NVMeTarget
}

// NVMeTarget is one NVMe volume and its issuing socket, resolved once.
type NVMeTarget struct {
	Vol    *nvme.Volume
	Socket int
}

// execQueue is the runtime state of one virtual NCCL stream: the schedule's
// QueueSpec plus the live tail handle, reused across iterations.
type execQueue struct {
	limit    float64
	rings    int
	tail     *collective.Handle
	tailAuto bool
}

// opState holds the pooled runtime resources of one schedule op.
type opState struct {
	pool  *flowPool
	issue *asyncIssue
	nvme  []NVMeTarget
}

// Executor replays one compiled Schedule against one Env. Construct once per
// run, call Run once per iteration.
type Executor struct {
	env   Env
	eng   *sim.Engine
	net   *fabric.Network
	world *collective.Group
	s     *Schedule
	state []opState

	queues []execQueue
	slots  []*collective.Handle // retained stream handles by schedule slot

	pc        int
	cur       *Op      // the op currently blocking the program
	t0        sim.Time // start time of the blocking op (for its trace span)
	nvmeLeft  int
	multiLeft int
	finish    func()

	// Callbacks bound once so replay schedules no closures.
	blockDoneFn  func()
	waitHopFn    func()
	waitResumeFn func()
	nvmeDoneFn   func()
	multiDoneFn  func()
}

// NewExecutor binds s to env: resolves flow builders and NVMe targets,
// allocates the pooled per-op state, and precompiles every collective plan
// the program will replay so the first Run already allocates nothing on the
// collective path.
func NewExecutor(env Env, s *Schedule) *Executor {
	ex := &Executor{env: env, eng: env.Engine(), net: env.Network(), world: env.World(), s: s}
	ex.queues = make([]execQueue, len(s.Queues))
	for i, q := range s.Queues {
		ex.queues[i] = execQueue{limit: q.Limit, rings: int(q.Rings)}
	}
	ex.slots = make([]*collective.Handle, s.Slots)
	ex.blockDoneFn = ex.blockDone
	ex.waitHopFn = ex.waitHop
	ex.waitResumeFn = ex.waitResume
	ex.nvmeDoneFn = ex.nvmeDone
	ex.multiDoneFn = ex.multiDone

	ex.state = make([]opState, len(s.Ops))
	for i := range s.Ops {
		op := &s.Ops[i]
		st := &ex.state[i]
		switch op.Kind {
		case OpFlows, OpPacedFlows:
			st.pool = ex.newFlowPool(false, env.FlowBuilder(op))
		case OpXfer, OpRouteXfer:
			st.pool = ex.newFlowPool(true, env.FlowBuilder(op))
		case OpNVMeIO:
			st.nvme = env.NVMeTargets()
		case OpEnqueue:
			st.issue = newAsyncIssue(ex, op)
			q := s.Queues[op.Queue]
			ex.world.Precompile(op.Col, op.Payload, q.Limit, int(q.Rings))
		case OpCollective:
			g := op.Group
			if g == nil {
				g = ex.world
			}
			g.Precompile(op.Col, op.Payload, op.Limit, int(op.Rings))
		case OpMultiCollective:
			for _, g := range op.Groups {
				g.Precompile(op.Col, op.Payload, op.Limit, int(op.Rings))
			}
		}
	}
	return ex
}

// Run replays the program once; done fires (possibly synchronously) when it
// completes.
//
//lint:steady
func (ex *Executor) Run(done func()) {
	ex.finish = done
	ex.pc = 0
	for i := range ex.queues {
		q := &ex.queues[i]
		if q.tail != nil {
			// The previous iteration's stream tail has fired and all its
			// waiters have run (every stream ends waited or drained); return
			// it to the pool before the stream restarts — pool bookkeeping
			// only, invisible to the event stream.
			q.tail.Release()
			q.tail, q.tailAuto = nil, false
		}
	}
	ex.step()
}

// step executes ops from pc until one blocks (its completion callback
// continues the program) or the program ends.
func (ex *Executor) step() {
	eng := ex.eng
	ops := ex.s.Ops
	for ex.pc < len(ops) {
		i := ex.pc
		op := &ops[i]
		switch op.Kind {
		case OpMemAlloc:
			ex.env.MemAlloc(op.Bytes)
		case OpMemFree:
			ex.env.MemFree(op.Bytes)
		case OpFlows:
			ex.state[i].pool.start()
		case OpCompute, OpOverhead:
			if op.Dur > 0 {
				ex.cur, ex.t0 = op, eng.Now()
				eng.Schedule(op.Dur, ex.blockDoneFn)
				return
			}
			// A zero-duration span returns inline and is never traced,
			// exactly as Sleep(0) + the empty-span drop behave.
		case OpCollective:
			g := op.Group
			if g == nil {
				g = ex.world
			}
			ex.cur, ex.t0 = op, eng.Now()
			g.StartRings(op.Col, op.Payload, op.Limit, int(op.Rings), ex.blockDoneFn)
			return
		case OpEnqueue:
			ex.push(i)
		case OpWaitSlot:
			h := ex.slots[op.Slot]
			if !h.Done() {
				ex.cur = op
				h.Then(ex.waitHopFn)
				return
			}
			ex.releaseSlot(op)
		case OpBarrier:
			q := &ex.queues[op.Queue]
			if q.tail != nil && !q.tail.Done() {
				ex.cur = op
				q.tail.Then(ex.waitHopFn)
				return
			}
		case OpXfer, OpRouteXfer:
			ex.cur, ex.t0 = op, eng.Now()
			ex.state[i].pool.start()
			return
		case OpPacedFlows:
			ex.state[i].pool.start() // paced flows, fire-and-forget
			ex.cur, ex.t0 = op, eng.Now()
			eng.Schedule(op.Dur, ex.blockDoneFn)
			return
		case OpNVMeIO:
			ex.cur, ex.t0 = op, eng.Now()
			st := &ex.state[i]
			ex.nvmeLeft = len(st.nvme)
			for j := range st.nvme {
				t := &st.nvme[j]
				t.Vol.IO(t.Socket, op.Bytes, op.Write, ex.nvmeDoneFn)
			}
			return
		case OpMultiCollective:
			ex.cur, ex.t0 = op, eng.Now()
			ex.multiLeft = len(op.Groups)
			for _, g := range op.Groups {
				g.StartRings(op.Col, op.Payload, op.Limit, int(op.Rings), ex.multiDoneFn)
			}
			return
		default:
			panic(fmt.Sprintf("schedule: unknown schedule op %d", int(op.Kind)))
		}
		ex.pc++
	}
	ex.finish()
}

// blockDone completes a simple blocking op: trace it if tagged, advance.
//
//lint:steady
func (ex *Executor) blockDone() {
	op := ex.cur
	if op.Traced {
		ex.env.TraceOp(op, ex.t0, ex.eng.Now())
	}
	ex.pc++
	ex.step()
}

// waitHop runs as a handle waiter and re-schedules the actual resume at +0 —
// the exact hop Handle.Wait takes, which keeps event ordering identical.
//
//lint:steady
func (ex *Executor) waitHop() {
	ex.eng.Schedule(0, ex.waitResumeFn)
}

//lint:steady
func (ex *Executor) waitResume() {
	if ex.cur.Kind == OpWaitSlot {
		ex.releaseSlot(ex.cur)
	}
	ex.pc++
	ex.step()
}

// releaseSlot returns a retained handle to the pool unless it is still the
// stream tail (comm-queue release semantics: a live tail recycles when
// superseded or at the next iteration's stream reset).
func (ex *Executor) releaseSlot(op *Op) {
	h := ex.slots[op.Slot]
	ex.slots[op.Slot] = nil
	if h != ex.queues[op.Queue].tail {
		h.Release()
	}
}

//lint:steady
func (ex *Executor) nvmeDone() {
	ex.nvmeLeft--
	if ex.nvmeLeft > 0 {
		return
	}
	ex.env.TraceOp(ex.cur, ex.t0, ex.eng.Now())
	ex.pc++
	ex.step()
}

//lint:steady
func (ex *Executor) multiDone() {
	ex.multiLeft--
	if ex.multiLeft > 0 {
		return
	}
	ex.env.TraceOp(ex.cur, ex.t0, ex.eng.Now())
	ex.pc++
	ex.step()
}

// push replays comm-queue push for the op at index i: chain the collective
// after the stream's current tail, releasing a superseded fire-and-forget
// predecessor once it has ordered this start.
func (ex *Executor) push(i int) {
	op := &ex.s.Ops[i]
	is := ex.state[i].issue
	q := &ex.queues[op.Queue]
	is.h = ex.world.NewHandle()
	is.prev, is.prevAuto = q.tail, q.tailAuto
	if is.prev == nil {
		is.start()
	} else {
		is.prev.Then(is.startFn)
	}
	q.tail, q.tailAuto = is.h, op.Slot < 0
	if op.Slot >= 0 {
		ex.slots[op.Slot] = is.h
	}
}

// asyncIssue is the per-op reusable state of one stream collective: the
// pooled handle, the predecessor edge, and the start/fire closures bound
// once. One record per OpEnqueue suffices — an op issues at most once per
// iteration and every stream drains before the iteration ends.
type asyncIssue struct {
	ex       *Executor
	op       *Op
	h        *collective.Handle
	prev     *collective.Handle
	prevAuto bool
	t0       sim.Time
	startFn  func()
	fireFn   func()
}

func newAsyncIssue(ex *Executor, op *Op) *asyncIssue {
	is := &asyncIssue{ex: ex, op: op}
	is.startFn = is.start
	is.fireFn = is.fire
	return is
}

//lint:steady
func (is *asyncIssue) start() {
	ex := is.ex
	q := &ex.queues[is.op.Queue]
	is.t0 = ex.eng.Now()
	ex.world.StartRings(is.op.Col, is.op.Payload, q.limit, q.rings, is.fireFn)
	// prev has now served its last purpose (ordering this start); a
	// fire-and-forget predecessor goes back to the pool.
	if is.prevAuto {
		is.prev.Release()
	}
	is.prev = nil
}

//lint:steady
func (is *asyncIssue) fire() {
	ex := is.ex
	ex.env.TraceOp(is.op, is.t0, ex.eng.Now())
	h := is.h
	is.h = nil
	h.Fire()
}

// ---- pooled flow sets ----

// flowPool recycles the flow records of one schedule op. StartFlows resets a
// drained flow's byte counter and bookkeeping on admission, so a set whose
// flows have all completed is reusable as-is; sets are returned to the free
// list by their own completion callback. A blocking pool additionally resumes
// the program when the set drains.
type flowPool struct {
	ex       *Executor
	blocking bool
	build    func() []*fabric.Flow
	free     []*flowSet
}

type flowSet struct {
	pool  *flowPool
	flows []*fabric.Flow
	left  int
	cb    func()
}

func (ex *Executor) newFlowPool(blocking bool, build func() []*fabric.Flow) *flowPool {
	return &flowPool{ex: ex, blocking: blocking, build: build}
}

func (fp *flowPool) start() {
	var s *flowSet
	if k := len(fp.free); k > 0 {
		s = fp.free[k-1]
		fp.free[k-1] = nil
		fp.free = fp.free[:k-1]
	} else {
		s = &flowSet{pool: fp, flows: fp.build()} //lint:allow steady-alloc — pool miss: first iteration builds the set, replays reuse it
		s.cb = s.flowDone
	}
	s.left = len(s.flows)
	fp.ex.net.StartFlows(s.flows, s.cb)
}

//lint:steady
func (s *flowSet) flowDone() {
	s.left--
	if s.left > 0 {
		return
	}
	fp := s.pool
	fp.free = append(fp.free, s) //lint:allow steady-alloc — free-list push: capacity reaches steady state after the first iteration
	if fp.blocking {
		fp.ex.blockDone()
	}
}
