package serve

import (
	"fmt"

	"llmbw/internal/compute"
	"llmbw/internal/memory"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// stepModel is a fabric's cost of the two serving passes. Each method starts
// its pass and reports whether the pass completed inline; otherwise next
// fires from engine context when the pass ends.
type stepModel interface {
	// prefill runs q's prompt pass on node pre and, when pre != dec, ships
	// its KV cache to decode node dec.
	prefill(q *request, pre, dec int, next func()) bool
	// decode runs one decode step of a bn-request batch on node, whose
	// longest context lands in context bucket cb.
	decode(node, bn, cb int, next func()) bool
}

// Runner executes one serving scenario: a continuous-batching scheduler over
// the fabric's serving replicas, with the fabric supplying only its step
// model. Decode replicas own requests round-robin by id. Disaggregated
// placement turns nodes/4 nodes (at least one) into a prefill pool that also
// owns requests round-robin by id and ships each admitted request's KV cache
// to its decode replica. The testbed is the one-replica case: colocated on
// node 0, or prefill on node 0 and decode on node 1.
//
// Every node runs one scheduler machine (see replica.run). All per-request
// state lives in the preallocated request slice and each replica's fixed
// ready/batch arrays; the decode loop (admitReady, startDecode, finishDecode)
// only mutates that state in place, so warm token generation allocates
// nothing.
type Runner struct {
	cfg    Config
	eng    *sim.Engine     // every serving machine runs on it
	runSim func() sim.Time // drives the fabric's simulation to completion
	cost   stepModel
	gpu    compute.GPUModel

	reqs []request

	// Derived per-GPU quantities (tensor-parallel shards).
	weightBytes float64 // resident FP16 weight image
	kvPerTok    float64 // KV bytes per token
	kvCap       float64 // KV capacity

	replicas []*replica // decode replicas (colocated: full-service)
	prefills []*replica // the prefill pool (disaggregated only)

	released int   // closed-loop release cursor
	ended    int   // node machines whose loop reached its end
	done     int   // completed requests
	steps    int64 // decode steps executed
	batchSum int64 // Σ batch size over steps
}

// replica is one serving node's scheduler: a decode replica, which also
// runs its requests' prompt passes under colocated placement, or a
// prefill-pool node, which uses only the admission fields. Its loop runs as
// a callback state machine; see run.
type replica struct {
	r     *Runner
	role  role
	node  int        // fabric node index
	queue []*request // owned requests in id (= arrival) order
	next  int        // admission cursor into queue

	ready    []*request // prefilled, waiting to join the batch (FIFO ring)
	rHead    int
	rTail    int
	batch    []*request // current decode batch, dense in [0,bn)
	bn       int
	inflight int // admitted, not yet completed
	done     int // completed

	kvUsed float64
	kvPeak float64

	pass    pass     // the pass the machine is parked on
	cur     *request // the request of a parked prefill pass
	waiting bool     // parked until a completion or handover wakes it
	resume  func()   // run, bound once
}

// role selects a replica's loop.
type role int

const (
	roleColocated role = iota // both phases of its own requests
	rolePrefill               // a prefill-pool node
	roleDecode                // a disaggregated decode replica
)

// pass is the serving pass a replica machine waits on, if any.
type pass int

const (
	passNone    pass = iota // parked on a wake or an arrival, or not started
	passPrefill             // cur's prompt pass
	passDecode              // a decode step of the batch
)

// NewRunner builds the fabric, generates the deterministic workload and
// places it on the fabric's replicas. The step model preallocates each
// node's walker and flows; collective plans compile on their first issue.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var dcCfg topology.DCConfig
	var err error
	if cfg.Topo != topology.PaperTopo {
		if dcCfg, err = topology.ParseTopoSpec(cfg.Topo); err != nil {
			return nil, err
		}
		cfg.Nodes = dcCfg.Nodes // report the fabric's node count, not the testbed default
	}
	tp := cfg.TensorParallel
	r := &Runner{
		cfg:         cfg,
		gpu:         compute.DefaultGPU(),
		reqs:        generate(cfg),
		weightBytes: memory.ServeWeightBytesPerGPU(cfg.Model, tp),
		kvPerTok:    memory.KVBytesPerToken(cfg.Model) / float64(tp),
		kvCap:       memory.ServeKVCapacityPerGPU(cfg.Model, tp),
	}
	if err = r.place(); err != nil {
		return nil, err
	}
	if cfg.Topo == topology.PaperTopo {
		r.cost = newTestbedSteps(r)
	} else if r.cost, err = newDCSteps(r, dcCfg); err != nil {
		return nil, err
	}
	return r, nil
}

// place splits the fabric's nodes into the prefill pool (disaggregated
// only: nodes/4, at least one) and the decode replicas after it, and hands
// out the requests round-robin by id within each.
func (r *Runner) place() error {
	nodes := r.cfg.Nodes
	prefillNodes := 0
	if r.cfg.Disaggregated {
		prefillNodes = max(1, nodes/4)
		if prefillNodes >= nodes {
			return fmt.Errorf("serve: %s too small for disaggregated serving", r.cfg.Topo)
		}
	}
	newNodes := func(first, count int, role role) []*replica {
		ns := make([]*replica, count)
		for i := range ns {
			n := &replica{r: r, role: role, node: first + i}
			n.resume = n.run
			ns[i] = n
		}
		for i := range r.reqs {
			n := ns[i%count]
			n.queue = append(n.queue, &r.reqs[i])
		}
		return ns
	}
	decodeRole := roleColocated
	if r.cfg.Disaggregated {
		decodeRole = roleDecode
	}
	r.replicas = newNodes(prefillNodes, nodes-prefillNodes, decodeRole)
	for _, rep := range r.replicas {
		rep.ready = make([]*request, len(rep.queue))
		rep.batch = make([]*request, r.cfg.MaxBatch)
	}
	if prefillNodes > 0 {
		r.prefills = newNodes(0, prefillNodes, rolePrefill)
	}
	if r.cfg.Arrival == ClosedLoop {
		r.released = min(r.cfg.Concurrency, len(r.reqs))
	}
	return nil
}

// replicaOf returns the decode replica that owns q.
func (r *Runner) replicaOf(q *request) *replica { return r.replicas[q.id%len(r.replicas)] }

// admitterOf returns the node whose machine admits q: its prefill-pool node,
// or its replica under colocated placement.
func (r *Runner) admitterOf(q *request) *replica {
	if len(r.prefills) > 0 {
		return r.prefills[q.id%len(r.prefills)]
	}
	return r.replicaOf(q)
}

// admissible returns n's next queued request when it has arrived and fits
// its decode replica (a batch slot and its full conservative KV
// reservation: prompt plus every token it will generate), or nil.
func (r *Runner) admissible(n *replica, now sim.Time) *request {
	if n.next >= len(n.queue) {
		return nil
	}
	q := n.queue[n.next]
	rep := r.replicaOf(q)
	if q.arrival > now || rep.inflight >= r.cfg.MaxBatch ||
		rep.kvUsed+float64(q.prompt+q.decode)*r.kvPerTok > r.kvCap {
		return nil
	}
	return q
}

// startPrefill admits q from node n and starts its prompt pass. Admission
// reserves q's KV footprint on its decode replica for its whole lifetime
// (vLLM-style reserve-ahead, which can never deadlock mid-generation). It
// reports whether the pass completed inline; otherwise next fires when it
// ends. finishPrefill then emits the first token.
func (r *Runner) startPrefill(n *replica, q *request, next func()) bool {
	rep := r.replicaOf(q)
	q.admit = r.eng.Now()
	q.kv = float64(q.prompt+q.decode) * r.kvPerTok
	rep.kvUsed += q.kv
	if rep.kvUsed > rep.kvPeak {
		rep.kvPeak = rep.kvUsed
	}
	rep.inflight++
	n.next++
	return r.cost.prefill(q, n.node, rep.node, next)
}

// finishPrefill emits q's first token once its prompt pass has ended: the
// request then completes at once (single-token generations) or is handed
// to its replica's ready queue.
func (r *Runner) finishPrefill(q *request) {
	rep := r.replicaOf(q)
	now := r.eng.Now()
	q.first = now
	q.decoded = 1
	if q.decoded >= q.decode {
		r.complete(q, rep, now)
		return
	}
	rep.ready[rep.rTail] = q
	rep.rTail++
	r.wake(rep)
}

// complete retires q on replica rep at time now: frees its KV reservation,
// releases the next closed-loop request to the node that admits it, and
// wakes every machine that may now make progress. Freed capacity on rep can
// unblock any prefill-pool node, or rep's own admission under colocated
// placement; the final completion must also wake rep's decode loop so it can
// exit.
func (r *Runner) complete(q *request, rep *replica, now sim.Time) {
	q.done = now
	rep.kvUsed -= q.kv
	rep.inflight--
	rep.done++
	r.done++
	if r.cfg.Arrival == ClosedLoop && r.released < len(r.reqs) {
		nq := &r.reqs[r.released]
		nq.arrival = now
		r.released++
		r.wake(r.admitterOf(nq))
	}
	for _, pf := range r.prefills {
		r.wake(pf)
	}
	r.wake(rep)
}

// wake resumes n's machine if it is parked. A wake is reached from another
// machine's step, so the resume hops through a zero-delay event rather than
// running n inside that step.
func (r *Runner) wake(n *replica) {
	if n.waiting {
		n.waiting = false
		r.eng.Schedule(0, n.resume)
	}
}

// idle parks n's machine until its next queued request arrives, or, when
// that request is unreleased, does not fit, or there is none, until a wake.
func (r *Runner) idle(n *replica, now sim.Time) {
	if n.next < len(n.queue) {
		if at := n.queue[n.next].arrival; at != unreleased && at > now {
			r.eng.Schedule(at-now, n.resume)
			return
		}
	}
	n.waiting = true
}

// admitReady moves handed-over requests into the decode batch up to the
// continuous-batching cap.
//
//lint:steady
func (rep *replica) admitReady() {
	for rep.rHead < rep.rTail && rep.bn < len(rep.batch) {
		rep.batch[rep.bn] = rep.ready[rep.rHead]
		rep.ready[rep.rHead] = nil
		rep.bn++
		rep.rHead++
	}
}

// startDecode starts one decode step of rep's batch: the step model's decode
// pass for the batch's (size, context bucket) shape. It reports whether the
// pass completed inline; otherwise next fires when it ends. finishDecode
// then generates the step's tokens. This is the warm serving path; it must
// not allocate.
//
//lint:steady
func (r *Runner) startDecode(rep *replica, next func()) bool {
	maxCtx := 0
	for i := 0; i < rep.bn; i++ {
		q := rep.batch[i]
		if c := q.prompt + q.decoded; c > maxCtx {
			maxCtx = c
		}
	}
	return r.cost.decode(rep.node, rep.bn, ctxBucketIdx(maxCtx), next)
}

// finishDecode generates one token for every request in rep's batch and
// retires finished requests in place.
//
//lint:steady
func (r *Runner) finishDecode(rep *replica) {
	now := r.eng.Now()
	r.steps++
	r.batchSum += int64(rep.bn)
	w := 0
	for i := 0; i < rep.bn; i++ {
		q := rep.batch[i]
		q.decoded++
		if q.decoded >= q.decode {
			r.complete(q, rep, now)
		} else {
			rep.batch[w] = q
			w++
		}
	}
	for i := w; i < rep.bn; i++ {
		rep.batch[i] = nil
	}
	rep.bn = w
}

// run is n's machine. It starts at time zero and is resumed when the pass
// it is parked on ends, after an arrival sleep, or by a wake: it finishes
// that pass, then continues its role's loop until a pass blocks, it parks,
// or its work ends. A pass that completes inline continues in the loop.
//
//lint:steady
func (n *replica) run() {
	r := n.r
	switch n.pass {
	case passPrefill:
		r.finishPrefill(n.cur)
		n.cur = nil
		if n.role == roleColocated {
			n.admitReady()
		}
	case passDecode:
		r.finishDecode(n)
	}
	n.pass = passNone
	switch n.role {
	case roleColocated:
		r.colocatedLoop(n)
	case rolePrefill:
		r.prefillLoop(n)
	default:
		r.decodeLoop(n)
	}
}

// colocatedLoop runs both phases of rep's requests in one machine: an
// admissible arrival's prefill preempts decode (prefill-priority continuous
// batching), which is exactly the decode stall disaggregation removes.
func (r *Runner) colocatedLoop(rep *replica) {
	for rep.done < len(rep.queue) {
		now := r.eng.Now()
		if q := r.admissible(rep, now); q != nil {
			if !r.startPrefill(rep, q, rep.resume) {
				rep.pass, rep.cur = passPrefill, q
				return
			}
			r.finishPrefill(q)
			rep.admitReady()
			continue
		}
		if rep.bn > 0 {
			if !r.startDecode(rep, rep.resume) {
				rep.pass = passDecode
				return
			}
			r.finishDecode(rep)
			continue
		}
		r.idle(rep, now)
		return
	}
	r.ended++
}

// prefillLoop is a prefill-pool node's machine: admit its requests in order
// onto their decode replicas, run their prompt passes and ship their KV
// caches.
func (r *Runner) prefillLoop(pf *replica) {
	for pf.next < len(pf.queue) {
		now := r.eng.Now()
		if q := r.admissible(pf, now); q != nil {
			if !r.startPrefill(pf, q, pf.resume) {
				pf.pass, pf.cur = passPrefill, q
				return
			}
			r.finishPrefill(q)
			continue
		}
		r.idle(pf, now)
		return
	}
	r.ended++
}

// decodeLoop is a disaggregated decode replica's machine: a pure token
// generation loop over whatever the prefill pool has handed over.
func (r *Runner) decodeLoop(rep *replica) {
	for rep.done < len(rep.queue) {
		rep.admitReady()
		if rep.bn == 0 {
			rep.waiting = true
			return
		}
		if !r.startDecode(rep, rep.resume) {
			rep.pass = passDecode
			return
		}
		r.finishDecode(rep)
	}
	r.ended++
}

// Run simulates the scenario to completion and returns its result.
func (r *Runner) Run() (*Result, error) {
	// Every node's machine starts at time zero, the prefill pool first.
	for _, pf := range r.prefills {
		r.eng.Schedule(0, pf.resume)
	}
	for _, rep := range r.replicas {
		r.eng.Schedule(0, rep.resume)
	}
	end := r.runSim()
	if stuck := len(r.prefills) + len(r.replicas) - r.ended; stuck != 0 {
		return nil, fmt.Errorf("serve: %s deadlocked with %d node machines short of their loop's end", r.cfg.Name(), stuck)
	}
	if r.done != len(r.reqs) {
		return nil, fmt.Errorf("serve: %s completed %d of %d requests", r.cfg.Name(), r.done, len(r.reqs))
	}
	return r.result(end), nil
}

// Run simulates one serving scenario end to end.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
