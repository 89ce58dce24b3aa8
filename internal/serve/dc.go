package serve

import (
	"fmt"

	"llmbw/internal/compute"
	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// runDC executes a serving scenario on a generated datacenter fabric. Like
// internal/train's datacenter path, the model is deliberately coarser than
// the testbed runner: each node is one tensor-parallel serving replica whose
// prefill/decode steps are roofline sleeps plus NVSwitch-domain flows, with
// requests spread round-robin over the replicas. Disaggregated placement
// dedicates a quarter of the nodes to prefill (at least one); each admitted
// request's KV cache crosses the rail fabric to its decode replica — the
// NIC-bandwidth-sensitive path the what-if study sweeps. The fluid KV and
// NVSwitch flows form one fair-share domain, so the fabric is built on one
// shard.
func runDC(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcCfg, err := topology.ParseTopoSpec(cfg.Topo)
	if err != nil {
		return nil, err
	}
	dcCfg.Window = cfg.Window
	if cfg.NICBW > 0 {
		dcCfg.NICBW = cfg.NICBW
	}
	cfg.Nodes = dcCfg.Nodes // report the fabric's node count, not the testbed default
	sc, err := topology.NewDCSharded(dcCfg, 1)
	if err != nil {
		return nil, err
	}

	s := &dcServer{cfg: cfg, sc: sc, gpu: compute.DefaultGPU(), reqs: generate(cfg)}
	s.grp = sc.Groups[0]
	s.eng = sc.EngineOf(0)
	tp := cfg.TensorParallel
	s.weightBytes = memory.ServeWeightBytesPerGPU(cfg.Model, tp)
	s.kvPerTok = memory.KVBytesPerToken(cfg.Model) / float64(tp)
	s.kvCap = memory.ServeKVCapacityPerGPU(cfg.Model, tp)
	if cfg.Arrival == ClosedLoop {
		s.released = cfg.Concurrency
		if s.released > len(s.reqs) {
			s.released = len(s.reqs)
		}
	}

	nodes := sc.Nodes()
	prefillNodes := 0
	if cfg.Disaggregated {
		prefillNodes = nodes / 4
		if prefillNodes < 1 {
			prefillNodes = 1
		}
		if prefillNodes >= nodes {
			return nil, fmt.Errorf("serve: %s too small for disaggregated serving", cfg.Topo)
		}
	}
	decodeNodes := nodes - prefillNodes

	// Decode replicas own requests round-robin by id; prefill nodes (when
	// disaggregated) own the prompt passes round-robin by id.
	s.replicas = make([]*dcReplica, decodeNodes)
	for d := range s.replicas {
		s.replicas[d] = &dcReplica{
			s:     s,
			node:  prefillNodes + d,
			batch: make([]*request, cfg.MaxBatch),
		}
	}
	for i := range s.reqs {
		q := &s.reqs[i]
		rep := s.replicas[i%decodeNodes]
		rep.queue = append(rep.queue, q)
		rep.ready = append(rep.ready, nil)
	}

	if cfg.Disaggregated {
		s.prefills = make([]*dcPrefill, prefillNodes)
		for pn := range s.prefills {
			s.prefills[pn] = &dcPrefill{s: s, node: pn}
		}
		for i := range s.reqs {
			pf := s.prefills[i%prefillNodes]
			pf.queue = append(pf.queue, &s.reqs[i])
		}
		for _, pf := range s.prefills {
			pf := pf
			s.eng.Go(fmt.Sprintf("serve-prefill-%d", pf.node), pf.run)
		}
		for _, rep := range s.replicas {
			rep := rep
			s.eng.Go(fmt.Sprintf("serve-decode-%d", rep.node), rep.runDecode)
		}
	} else {
		for _, rep := range s.replicas {
			rep := rep
			s.eng.Go(fmt.Sprintf("serve-replica-%d", rep.node), rep.runColocated)
		}
	}

	end := sc.RunSim()
	if n := sc.Eng.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("serve: %s deadlocked with %d live processes", cfg.Name(), n)
	}
	for _, g := range sc.Groups {
		g.Net.Quiesce()
	}
	if s.doneTotal != len(s.reqs) {
		return nil, fmt.Errorf("serve: %s completed %d of %d requests", cfg.Name(), s.doneTotal, len(s.reqs))
	}
	var kvPeak float64
	for _, rep := range s.replicas {
		if rep.kvPeak > kvPeak {
			kvPeak = rep.kvPeak
		}
	}
	return buildResult(cfg, s.reqs, end, s.steps, s.batchSum, kvPeak, s.kvCap), nil
}

// dcServer is the shared state of a datacenter serving run. All procs live
// on shard 0's engine, so mutation is serialized by the event loop.
type dcServer struct {
	cfg Config
	sc  *topology.DCShardedCluster
	grp *topology.DCCluster
	eng *sim.Engine
	gpu compute.GPUModel

	reqs []request

	weightBytes float64
	kvPerTok    float64
	kvCap       float64

	replicas []*dcReplica
	prefills []*dcPrefill

	released  int
	doneTotal int
	steps     int64
	batchSum  int64
}

// dcReplica is one decode (or colocated full-service) node.
type dcReplica struct {
	s    *dcServer
	node int

	queue []*request // assigned requests in id (= arrival) order
	next  int        // admission cursor (colocated mode)

	ready []*request
	rHead int
	rTail int

	batch    []*request
	bn       int
	inflight int
	done     int

	kvUsed float64
	kvPeak float64

	waiting bool
	idle    *sim.Waiter
}

// dcPrefill is one dedicated prefill node of a disaggregated deployment.
type dcPrefill struct {
	s       *dcServer
	node    int
	queue   []*request
	next    int
	waiting bool
	idle    *sim.Waiter
}

func (s *dcServer) wake(idle *sim.Waiter, waiting *bool) {
	if *waiting {
		*waiting = false
		s.eng.Schedule(0, idle.DoneFunc())
	}
}

// ownerOf returns the structures that must be woken when request id becomes
// runnable: its prefill node (disaggregated) or its replica (colocated).
func (s *dcServer) wakeOwner(id int) {
	if s.cfg.Disaggregated {
		pf := s.prefills[id%len(s.prefills)]
		s.wake(pf.idle, &pf.waiting)
		return
	}
	rep := s.replicas[id%len(s.replicas)]
	s.wake(rep.idle, &rep.waiting)
}

// complete retires q on replica rep: frees its KV reservation, releases the
// next closed-loop request and wakes every proc that may now make progress.
func (s *dcServer) complete(q *request, rep *dcReplica, now sim.Time) {
	q.done = now
	rep.kvUsed -= q.kv
	rep.inflight--
	rep.done++
	s.doneTotal++
	if s.cfg.Arrival == ClosedLoop && s.released < len(s.reqs) {
		nq := &s.reqs[s.released]
		nq.arrival = now
		s.released++
		s.wakeOwner(nq.id)
	}
	// Freed capacity on rep can unblock any prefill node (disaggregated) or
	// rep's own admission (colocated); the final completion must also wake
	// rep's decode loop so it can exit.
	for _, pf := range s.prefills {
		s.wake(pf.idle, &pf.waiting)
	}
	s.wake(rep.idle, &rep.waiting)
}

// reserve admits q onto rep with its full conservative KV reservation.
func (s *dcServer) reserve(q *request, rep *dcReplica, now sim.Time) {
	q.admit = now
	q.kv = float64(q.prompt+q.decode) * s.kvPerTok
	rep.kvUsed += q.kv
	if rep.kvUsed > rep.kvPeak {
		rep.kvPeak = rep.kvUsed
	}
	rep.inflight++
}

// nvCollective awaits the replica's aggregated tensor-parallel all-reduce
// traffic on the node's NVSwitch domain: two all-reduces per pass, each
// moving 2·(tp−1)·payload bytes through the fabric.
func (s *dcServer) nvCollective(p *sim.Proc, node, tokens int) {
	tp := s.cfg.TensorParallel
	if tp < 2 {
		return
	}
	bytes := 4 * float64(tp-1) * tpAllReducePayload(s.cfg.Model, tokens)
	f := &fabric.Flow{
		Name:  fmt.Sprintf("serve-nv-n%d", node),
		Path:  []*fabric.Link{s.sc.NVFabric(node)},
		Bytes: bytes,
	}
	p.Await(func(resume func()) { s.grp.Net.StartFlow(f, resume) })
}

// prefillStep models a prompt pass on node: the roofline kernel sleep plus
// the NVSwitch collective traffic.
func (s *dcServer) prefillStep(p *sim.Proc, node int, q *request) {
	pb := promptBucket(q.prompt)
	tp := float64(s.cfg.TensorParallel)
	flops := prefillFLOPs(s.cfg.Model, pb) / tp
	bytes := s.weightBytes + float64(pb)*s.kvPerTok
	p.Sleep(s.gpu.RooflineTime(flops, bytes))
	s.nvCollective(p, node, pb)
}

// shipKV awaits the KV-cache transfer from prefill node to decode node over
// the request's rail (requests stripe the rails round-robin). The full
// source-NIC → fabric → destination-NIC path is one fluid flow; the path's
// extra switching latency is paid as a sleep up front.
func (s *dcServer) shipKV(p *sim.Proc, from, to int, q *request) {
	rails := s.sc.Cfg.Rails
	src, dst, extra := s.sc.RailPath(from, to, q.id%rails)
	if extra > 0 {
		p.Sleep(extra)
	}
	path := make([]*fabric.Link, 0, len(src)+len(dst))
	path = append(path, src...)
	path = append(path, dst...)
	f := &fabric.Flow{
		Name:  fmt.Sprintf("serve-kv-r%d", q.id),
		Path:  path,
		Bytes: float64(q.prompt) * s.kvPerTok * float64(s.cfg.TensorParallel),
	}
	p.Await(func(resume func()) { s.grp.Net.StartFlow(f, resume) })
}

// finishPrefill emits the request's first token and hands it to its decode
// replica (or retires single-token generations immediately).
func (s *dcServer) finishPrefill(q *request, rep *dcReplica, now sim.Time) {
	q.first = now
	q.decoded = 1
	if q.decoded >= q.decode {
		s.complete(q, rep, now)
		return
	}
	rep.ready[rep.rTail] = q
	rep.rTail++
	s.wake(rep.idle, &rep.waiting)
}

// admitReady moves handed-over requests into the decode batch.
func (rep *dcReplica) admitReady() {
	for rep.rHead < rep.rTail && rep.bn < len(rep.batch) {
		rep.batch[rep.bn] = rep.ready[rep.rHead]
		rep.ready[rep.rHead] = nil
		rep.bn++
		rep.rHead++
	}
}

// decodeStep generates one token for the replica's batch: the memory-bound
// roofline sleep (weights plus the batch's KV reads), the NVSwitch
// collective traffic, then retirement of finished requests.
func (rep *dcReplica) decodeStep(p *sim.Proc) {
	s := rep.s
	maxCtx := 0
	for i := 0; i < rep.bn; i++ {
		q := rep.batch[i]
		if c := q.prompt + q.decoded; c > maxCtx {
			maxCtx = c
		}
	}
	ctx := ctxBucketIdx(maxCtx) * CtxBucket
	tp := float64(s.cfg.TensorParallel)
	flops := 2 * float64(s.cfg.Model.Params()) * float64(rep.bn) / tp
	bytes := s.weightBytes + float64(rep.bn)*float64(ctx)*s.kvPerTok
	p.Sleep(s.gpu.RooflineTime(flops, bytes))
	s.nvCollective(p, rep.node, rep.bn)

	now := p.Now()
	s.steps++
	s.batchSum += int64(rep.bn)
	w := 0
	for i := 0; i < rep.bn; i++ {
		q := rep.batch[i]
		q.decoded++
		if q.decoded >= q.decode {
			s.complete(q, rep, now)
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

// runColocated serves the replica's requests with both phases on the node:
// an admissible arrival's prefill preempts decode, stalling the batch.
func (rep *dcReplica) runColocated(p *sim.Proc) {
	s := rep.s
	rep.idle = sim.NewWaiter(p)
	for rep.done < len(rep.queue) {
		now := p.Now()
		if q := rep.admissible(now); q != nil {
			s.reserve(q, rep, now)
			rep.next++
			s.prefillStep(p, rep.node, q)
			s.finishPrefill(q, rep, p.Now())
			rep.admitReady()
			continue
		}
		if rep.bn > 0 {
			rep.decodeStep(p)
			continue
		}
		if rep.next < len(rep.queue) {
			q := rep.queue[rep.next]
			if q.arrival == unreleased {
				rep.waiting = true
				rep.idle.Wait()
				continue
			}
			if q.arrival > now {
				p.Sleep(q.arrival - now)
				continue
			}
		}
		// All admitted work is done and no arrival is runnable; wait for a
		// completion elsewhere to release one.
		rep.waiting = true
		rep.idle.Wait()
	}
}

// admissible returns the replica's next arrived-and-fitting request, or nil.
func (rep *dcReplica) admissible(now sim.Time) *request {
	if rep.next >= len(rep.queue) {
		return nil
	}
	q := rep.queue[rep.next]
	if q.arrival == unreleased || q.arrival > now ||
		rep.inflight >= rep.s.cfg.MaxBatch ||
		rep.kvUsed+float64(q.prompt+q.decode)*rep.s.kvPerTok > rep.s.kvCap {
		return nil
	}
	return q
}

// runDecode is the disaggregated replica's pure token-generation loop.
func (rep *dcReplica) runDecode(p *sim.Proc) {
	rep.idle = sim.NewWaiter(p)
	for rep.done < len(rep.queue) {
		rep.admitReady()
		if rep.bn == 0 {
			rep.waiting = true
			rep.idle.Wait()
			continue
		}
		rep.decodeStep(p)
	}
}

// run is a disaggregated prefill node's loop: admit arrivals in order onto
// their decode replicas, run the prompt pass and ship the KV cache across
// the rail fabric.
func (pf *dcPrefill) run(p *sim.Proc) {
	s := pf.s
	pf.idle = sim.NewWaiter(p)
	for pf.next < len(pf.queue) {
		q := pf.queue[pf.next]
		now := p.Now()
		if q.arrival == unreleased {
			pf.waiting = true
			pf.idle.Wait()
			continue
		}
		if q.arrival > now {
			p.Sleep(q.arrival - now)
			continue
		}
		rep := s.replicas[q.id%len(s.replicas)]
		if rep.inflight >= s.cfg.MaxBatch ||
			rep.kvUsed+float64(q.prompt+q.decode)*s.kvPerTok > s.kvCap {
			pf.waiting = true
			pf.idle.Wait()
			continue
		}
		s.reserve(q, rep, now)
		pf.next++
		s.prefillStep(p, pf.node, q)
		s.shipKV(p, pf.node, rep.node, q)
		s.finishPrefill(q, rep, p.Now())
	}
}
