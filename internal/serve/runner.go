package serve

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/compute"
	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// Runner executes one serving scenario on the paper's testbed cluster. All
// per-request state lives in the preallocated request slice and the fixed
// ready/batch arrays; the steady decode loop (admitReady/decodeStep) only
// replays pooled executors and mutates that state in place, so warm token
// generation allocates nothing.
type Runner struct {
	cfg     Config
	cluster *topology.Cluster
	eng     *sim.Engine
	gpu     compute.GPUModel

	preGroup *collective.Group             // tensor-parallel group serving prefill
	decGroup *collective.Group             // tensor-parallel group serving decode
	preExec  map[int]*schedule.Executor    // by prompt bucket
	decExec  map[[2]int]*schedule.Executor // by (batch, ctx bucket index)

	reqs []request

	// Derived per-GPU quantities (tensor-parallel shards).
	weightBytes float64 // resident FP16 weight image
	kvPerTok    float64 // KV bytes per token
	kvCap       float64 // KV capacity

	// Live serving state.
	batch    []*request // current decode batch, dense in [0,bn)
	bn       int
	ready    []*request // prefilled, waiting to join the batch (FIFO ring)
	rHead    int
	rTail    int
	inflight int // admitted, not yet completed
	nextArr  int // admission cursor (requests admit in id order)
	released int // closed-loop release cursor
	done     int // completed requests

	kvUsed float64
	kvPeak float64

	// Cross-proc wakeups (disaggregated placement runs prefill and decode as
	// separate procs; colocated placement runs one proc and never blocks on
	// these).
	decodeWaiting  bool
	prefillWaiting bool
	decodeIdle     *sim.Waiter
	prefillIdle    *sim.Waiter
	stepWaiter     *sim.Waiter // decode executor completion
	preWaiter      *sim.Waiter // prefill executor completion

	steps    int64 // decode steps executed
	batchSum int64 // Σ batch size over steps
}

// serveEnv binds the serving programs to the live cluster. KV residency is
// accounted by the runner at admission/completion (exact token counts), not
// through schedule memory ops (which would be bucket-quantized), so
// MemAlloc/MemFree are inert; tracing is off on the serving path.
type serveEnv struct {
	r       *Runner
	prefill bool
}

func (e serveEnv) Engine() *sim.Engine      { return e.r.eng }
func (e serveEnv) Network() *fabric.Network { return e.r.cluster.Net }

func (e serveEnv) World() *collective.Group {
	if e.prefill {
		return e.r.preGroup
	}
	return e.r.decGroup
}

func (e serveEnv) MemAlloc(float64)                             {}
func (e serveEnv) MemFree(float64)                              {}
func (e serveEnv) TraceOp(op *schedule.Op, start, end sim.Time) {}
func (e serveEnv) NVMeTargets() []schedule.NVMeTarget           { return nil }

// FlowBuilder resolves the disaggregated KV shipment: one GPUDirect RoCE
// flow per tensor-parallel rank from the prefill node's GPU to its decode
// peer, each NIC serving its own socket's GPUs. Runs only on pool miss.
func (e serveEnv) FlowBuilder(op *schedule.Op) func() []*fabric.Flow {
	if op.Kind != schedule.OpXfer {
		panic(fmt.Sprintf("serve: no flow builder for op kind %d", int(op.Kind)))
	}
	bytes := op.Bytes
	return func() []*fabric.Flow {
		flows := make([]*fabric.Flow, e.r.cfg.TensorParallel)
		for i := range flows {
			src := topology.GPU{Node: 0, Index: i}
			dst := topology.GPU{Node: 1, Index: i}
			route := e.r.cluster.GPUToRemoteGPUVia(src, dst, src.Socket(), dst.Socket())
			flows[i] = route.Flow(fmt.Sprintf("kv-ship-g%d", i), bytes)
		}
		return flows
	}
}

// NewRunner builds the cluster, generates the deterministic workload and
// eagerly compiles every prefill/decode program shape the workload can
// present (so the serving loops only ever look programs up).
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tcfg := topology.DefaultConfig(cfg.Nodes)
	tcfg.Window = cfg.Window
	tcfg.RoCEBW = cfg.RoCEBW
	cluster := topology.New(tcfg)

	r := &Runner{
		cfg:     cfg,
		cluster: cluster,
		eng:     cluster.Eng,
		gpu:     compute.DefaultGPU(),
		reqs:    generate(cfg),
	}
	tp := cfg.TensorParallel
	r.weightBytes = memory.ServeWeightBytesPerGPU(cfg.Model, tp)
	r.kvPerTok = memory.KVBytesPerToken(cfg.Model) / float64(tp)
	r.kvCap = memory.ServeKVCapacityPerGPU(cfg.Model, tp)

	ranks := func(node int) []topology.GPU {
		gs := make([]topology.GPU, tp)
		for i := range gs {
			gs[i] = topology.GPU{Node: node, Index: i}
		}
		return gs
	}
	decNode := 0
	if cfg.Disaggregated {
		decNode = 1
	}
	r.decGroup = collective.NewGroup(cluster, ranks(decNode))
	if cfg.Disaggregated {
		r.preGroup = collective.NewGroup(cluster, ranks(0))
	} else {
		r.preGroup = r.decGroup
	}

	r.batch = make([]*request, cfg.MaxBatch)
	r.ready = make([]*request, len(r.reqs))
	if cfg.Arrival == ClosedLoop {
		r.released = cfg.Concurrency
		if r.released > len(r.reqs) {
			r.released = len(r.reqs)
		}
	}

	// Compile every program shape the workload can present.
	maxCtx := 0
	r.preExec = make(map[int]*schedule.Executor)
	for i := range r.reqs {
		q := &r.reqs[i]
		if c := q.prompt + q.decode; c > maxCtx {
			maxCtx = c
		}
		pb := promptBucket(q.prompt)
		if _, ok := r.preExec[pb]; !ok {
			r.preExec[pb] = schedule.NewExecutor(serveEnv{r: r, prefill: true}, r.compilePrefill(pb))
		}
	}
	maxCB := ctxBucketIdx(maxCtx)
	r.decExec = make(map[[2]int]*schedule.Executor, cfg.MaxBatch*maxCB)
	for b := 1; b <= cfg.MaxBatch; b++ {
		for cb := 1; cb <= maxCB; cb++ {
			r.decExec[[2]int{b, cb}] = schedule.NewExecutor(serveEnv{r: r}, r.compileDecode(b, cb))
		}
	}
	return r, nil
}

// kvFits reports whether q's full conservative KV reservation (prompt plus
// every token it will generate) fits the decode-side capacity.
func (r *Runner) kvFits(q *request) bool {
	return r.kvUsed+float64(q.prompt+q.decode)*r.kvPerTok <= r.kvCap
}

// reserve admits q: reserves its KV footprint on the decode side for its
// whole lifetime (vLLM-style reserve-ahead, which can never deadlock
// mid-generation) and advances the admission cursor.
func (r *Runner) reserve(q *request, now sim.Time) {
	q.admit = now
	q.kv = float64(q.prompt+q.decode) * r.kvPerTok
	r.kvUsed += q.kv
	if r.kvUsed > r.kvPeak {
		r.kvPeak = r.kvUsed
	}
	r.inflight++
	r.nextArr++
}

// complete retires q at time now: frees its KV reservation, releases the
// next closed-loop request, and wakes whichever proc was waiting for
// capacity or for the final completion.
func (r *Runner) complete(q *request, now sim.Time) {
	q.done = now
	r.kvUsed -= q.kv
	r.inflight--
	r.done++
	if r.cfg.Arrival == ClosedLoop && r.released < len(r.reqs) {
		r.reqs[r.released].arrival = now
		r.released++
	}
	r.wakePrefill()
	r.wakeDecode()
}

// The wake helpers signal a proc parked on its idle waiter. Done must run
// from engine context, and these are reached from the other proc's
// goroutine, so the signal hops through a zero-delay event.
func (r *Runner) wakeDecode() {
	if r.decodeWaiting {
		r.decodeWaiting = false
		r.eng.Schedule(0, r.decodeIdle.DoneFunc())
	}
}

func (r *Runner) wakePrefill() {
	if r.prefillWaiting {
		r.prefillWaiting = false
		r.eng.Schedule(0, r.prefillIdle.DoneFunc())
	}
}

// runPrefill replays the request's prefill program (blocking its proc) and
// emits the first token: the request either completes immediately
// (single-token generations) or becomes ready for the decode batch.
func (r *Runner) runPrefill(q *request) {
	ex := r.preExec[promptBucket(q.prompt)]
	ex.Run(r.preWaiter.DoneFunc())
	r.preWaiter.Wait()
	now := r.eng.Now()
	q.first = now
	q.decoded = 1
	if q.decoded >= q.decode {
		r.complete(q, now)
		return
	}
	r.ready[r.rTail] = q
	r.rTail++
	r.wakeDecode()
}

// admitReady moves prefilled requests into the decode batch up to the
// continuous-batching cap.
//
//lint:steady
func (r *Runner) admitReady() {
	for r.rHead < r.rTail && r.bn < len(r.batch) {
		r.batch[r.bn] = r.ready[r.rHead]
		r.ready[r.rHead] = nil
		r.bn++
		r.rHead++
	}
}

// decodeStep generates one token for every request in the batch: replay the
// compiled program for the batch's (size, context bucket) shape, then retire
// finished requests in place. This is the warm serving path — it must not
// allocate.
//
//lint:steady
func (r *Runner) decodeStep() {
	maxCtx := 0
	for i := 0; i < r.bn; i++ {
		q := r.batch[i]
		if c := q.prompt + q.decoded; c > maxCtx {
			maxCtx = c
		}
	}
	ex := r.decExec[[2]int{r.bn, ctxBucketIdx(maxCtx)}]
	ex.Run(r.stepWaiter.DoneFunc())
	r.stepWaiter.Wait()
	now := r.eng.Now()
	r.steps++
	r.batchSum += int64(r.bn)
	w := 0
	for i := 0; i < r.bn; i++ {
		q := r.batch[i]
		q.decoded++
		if q.decoded >= q.decode {
			r.complete(q, now)
		} else {
			r.batch[w] = q
			w++
		}
	}
	for i := w; i < r.bn; i++ {
		r.batch[i] = nil
	}
	r.bn = w
}

// serveColocated runs both phases in one proc on the node's GPUs: an
// admissible arrival's prefill preempts decode (prefill-priority continuous
// batching), which is exactly the decode stall disaggregation removes.
func (r *Runner) serveColocated(p *sim.Proc) {
	r.stepWaiter = sim.NewWaiter(p)
	r.preWaiter = r.stepWaiter
	for r.done < len(r.reqs) {
		now := p.Now()
		if q := r.admissible(now); q != nil {
			r.reserve(q, now)
			r.runPrefill(q)
			r.admitReady()
			continue
		}
		if r.bn > 0 {
			r.decodeStep()
			continue
		}
		// Idle: everything in flight is done and the next arrival is in the
		// future (closed-loop releases keep at least one request admissible,
		// so the cursor's arrival time here is always concrete).
		p.Sleep(r.reqs[r.nextArr].arrival - now)
	}
}

// admissible returns the next request that has arrived and fits (batch room
// and KV capacity), or nil.
func (r *Runner) admissible(now sim.Time) *request {
	if r.nextArr >= len(r.reqs) {
		return nil
	}
	q := &r.reqs[r.nextArr]
	if q.arrival > now || r.inflight >= r.cfg.MaxBatch || !r.kvFits(q) {
		return nil
	}
	return q
}

// servePrefill is the disaggregated prefill proc on node 0: admit arrivals
// in order, run their prompt pass, ship the KV cache and hand them to the
// decode node.
func (r *Runner) servePrefill(p *sim.Proc) {
	r.preWaiter = sim.NewWaiter(p)
	r.prefillIdle = sim.NewWaiter(p)
	for r.nextArr < len(r.reqs) {
		q := &r.reqs[r.nextArr]
		now := p.Now()
		if q.arrival == unreleased {
			r.prefillWaiting = true
			r.prefillIdle.Wait()
			continue
		}
		if q.arrival > now {
			p.Sleep(q.arrival - now)
			continue
		}
		if r.inflight >= r.cfg.MaxBatch || !r.kvFits(q) {
			r.prefillWaiting = true
			r.prefillIdle.Wait()
			continue
		}
		r.reserve(q, now)
		r.runPrefill(q)
	}
}

// serveDecode is the disaggregated decode proc on node 1: a pure token
// generation loop over whatever the prefill node has handed over.
func (r *Runner) serveDecode(p *sim.Proc) {
	r.stepWaiter = sim.NewWaiter(p)
	r.decodeIdle = sim.NewWaiter(p)
	for r.done < len(r.reqs) {
		r.admitReady()
		if r.bn == 0 {
			r.decodeWaiting = true
			r.decodeIdle.Wait()
			continue
		}
		r.decodeStep()
	}
}

// Run simulates the scenario to completion and returns its result.
func (r *Runner) Run() (*Result, error) {
	if r.cfg.Disaggregated {
		r.eng.Go("serve-prefill", r.servePrefill)
		r.eng.Go("serve-decode", r.serveDecode)
	} else {
		r.eng.Go("serve", r.serveColocated)
	}
	end := r.eng.Run()
	if live := r.eng.LiveProcs(); live != 0 {
		return nil, fmt.Errorf("serve: %s deadlocked with %d live procs", r.cfg.Name(), live)
	}
	if r.done != len(r.reqs) {
		return nil, fmt.Errorf("serve: %s completed %d of %d requests", r.cfg.Name(), r.done, len(r.reqs))
	}
	return r.result(end), nil
}

// Run simulates one serving scenario end to end.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Topo != topology.PaperTopo {
		return runDC(cfg)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
