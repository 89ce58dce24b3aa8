// Package serve models LLM inference serving on the same infrastructure
// stack the training simulator characterizes: the prefill and decode phases
// of each request are compiled into internal/schedule programs (roofline
// compute against sustained HBM bandwidth, tensor-parallel all-reduces per
// decode token through compiled collective plans, KV-cache growth in the
// memory model) and replayed by the shared executor under a
// continuous-batching admission loop. Requests arrive open-loop (Poisson),
// closed-loop, or from an explicit trace; per-request accounting yields
// TTFT, time-between-tokens, latency percentiles and goodput against SLOs.
//
// Two placements are modelled on the paper's testbed: colocated (one node
// serves both phases; prefill stalls the decode batch exactly as naive
// continuous batching does) and disaggregated (prefill on node 0, decode on
// node 1, with each request's KV cache shipped across the RoCE fabric as
// fabric flows — the bandwidth-sensitive path the what-if studies sweep).
// Generated datacenter fabrics (fat-tree / rail-only / dragonfly) run a
// coarser replica-per-node model, mirroring how internal/train treats them.
package serve

import (
	"fmt"
	"strings"

	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// Arrival selects how requests enter the system.
type Arrival int

// Arrival processes.
const (
	// OpenLoop draws Poisson arrivals at RatePerSec, independent of service
	// progress (offered load is external).
	OpenLoop Arrival = iota
	// ClosedLoop keeps Concurrency requests in flight: a completion releases
	// the next request immediately.
	ClosedLoop
	// TraceDriven replays the explicit Trace entries.
	TraceDriven
)

// String returns the arrival-process name.
func (a Arrival) String() string {
	switch a {
	case OpenLoop:
		return "open"
	case ClosedLoop:
		return "closed"
	case TraceDriven:
		return "trace"
	}
	return fmt.Sprintf("Arrival(%d)", int(a))
}

// ParseArrival parses an arrival-process name.
func ParseArrival(s string) (Arrival, error) {
	switch strings.ToLower(s) {
	case "", "open", "poisson":
		return OpenLoop, nil
	case "closed":
		return ClosedLoop, nil
	case "trace":
		return TraceDriven, nil
	}
	return 0, fmt.Errorf("serve: unknown arrival process %q (want open, closed or trace)", s)
}

// TraceReq is one explicit arrival of a trace-driven workload.
type TraceReq struct {
	At           sim.Time `json:"at_ns"`
	PromptTokens int      `json:"prompt_tokens"`
	DecodeTokens int      `json:"decode_tokens"`
}

// Serving limits and bucketing granularity.
const (
	// MaxBatchLimit bounds the continuous-batching window (and sizes the
	// executor program cache).
	MaxBatchLimit = 64
	// CtxBucket quantizes the batch's maximum context length when selecting
	// a compiled decode program, so the program cache stays small while
	// KV-read traffic still grows with context.
	CtxBucket = 256
	// PromptBucket quantizes prompt lengths when selecting a compiled
	// prefill program.
	PromptBucket = 64
)

// Config describes one serving scenario. The zero value is not runnable; use
// withDefaults via Run/RunCached.
type Config struct {
	// Model is the transformer served. Zero selects the 24-layer (~1.3 B)
	// paper architecture.
	Model model.GPT
	// TensorParallel is the TP degree of one replica (1..4 on the testbed's
	// 4-GPU nodes).
	TensorParallel int
	// Nodes is the testbed node count (1 colocated, 2 for disaggregated).
	Nodes int
	// Disaggregated places prefill on node 0 and decode on node 1, shipping
	// each admitted request's KV cache across the RoCE fabric.
	Disaggregated bool
	// Topo selects the fabric: "paper" (default, the testbed Cluster) or a
	// generated datacenter spec ("fat-tree:nodes=8", "rail-only:nodes=8",
	// ...) served by the coarse replica-per-node model.
	Topo string

	// Arrival / workload shape.
	Arrival      Arrival
	RatePerSec   float64    // OpenLoop offered load (requests/s)
	Concurrency  int        // ClosedLoop in-flight requests
	Requests     int        // total requests simulated
	Warmup       int        // leading completions excluded from latency metrics
	PromptTokens int        // mean prompt length (tokens)
	DecodeTokens int        // mean generated length (tokens)
	MaxBatch     int        // continuous-batching cap
	Seed         uint64     // workload RNG seed
	Trace        []TraceReq // TraceDriven arrivals

	// SLOs for goodput accounting: a completed request counts toward
	// goodput only when TTFT and mean TBT both meet them.
	SLOTTFT sim.Time
	SLOTBT  sim.Time

	// Window is the telemetry sampling window (0 = default).
	Window sim.Time
	// RoCEBW overrides the testbed per-NIC bandwidth (bytes/s, 0 = paper).
	RoCEBW float64
	// NICBW overrides the datacenter per-rail NIC bandwidth (bytes/s).
	NICBW float64
}

// withDefaults fills unset fields with the canonical serving scenario.
func (c Config) withDefaults() Config {
	if c.Model == (model.GPT{}) {
		c.Model = model.NewGPT(24)
	}
	if c.TensorParallel == 0 {
		c.TensorParallel = topology.GPUsPerNode
	}
	if c.Nodes == 0 {
		c.Nodes = 1
		if c.Disaggregated {
			c.Nodes = 2
		}
	}
	if c.Topo == "" {
		c.Topo = topology.PaperTopo
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 8
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Requests == 0 {
		c.Requests = 64
	}
	if c.PromptTokens == 0 {
		c.PromptTokens = 512
	}
	if c.DecodeTokens == 0 {
		c.DecodeTokens = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SLOTTFT == 0 {
		c.SLOTTFT = 50 * sim.Millisecond
	}
	if c.SLOTBT == 0 {
		c.SLOTBT = 3 * sim.Millisecond
	}
	if c.Arrival == TraceDriven {
		c.Requests = len(c.Trace)
	}
	return c
}

// Validate reports configuration errors. Called on the defaulted config.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch {
	case c.TensorParallel < 1 || c.TensorParallel > topology.GPUsPerNode:
		return fmt.Errorf("serve: tensor parallel %d outside 1..%d", c.TensorParallel, topology.GPUsPerNode)
	case c.Requests < 1:
		return fmt.Errorf("serve: need at least one request")
	case c.Warmup < 0 || c.Warmup >= c.Requests:
		return fmt.Errorf("serve: warmup %d outside 0..%d", c.Warmup, c.Requests-1)
	case c.MaxBatch < 1 || c.MaxBatch > MaxBatchLimit:
		return fmt.Errorf("serve: max batch %d outside 1..%d", c.MaxBatch, MaxBatchLimit)
	case c.PromptTokens < 1 || c.DecodeTokens < 1:
		return fmt.Errorf("serve: prompt/decode token means must be positive")
	case c.RatePerSec <= 0 && c.Arrival == OpenLoop:
		return fmt.Errorf("serve: open-loop arrival needs a positive rate")
	case c.Concurrency < 1 && c.Arrival == ClosedLoop:
		return fmt.Errorf("serve: closed-loop arrival needs positive concurrency")
	case c.Arrival == TraceDriven && len(c.Trace) == 0:
		return fmt.Errorf("serve: trace-driven arrival needs trace entries")
	}
	if c.Topo == topology.PaperTopo {
		if c.Disaggregated && c.Nodes != 2 {
			return fmt.Errorf("serve: disaggregated testbed serving needs exactly 2 nodes, got %d", c.Nodes)
		}
		if !c.Disaggregated && c.Nodes != 1 {
			return fmt.Errorf("serve: colocated testbed serving runs on 1 node, got %d", c.Nodes)
		}
	}
	// The largest single request must fit the decode-side KV capacity, or
	// admission could never make progress.
	cap := memory.ServeKVCapacityPerGPU(c.Model, c.TensorParallel)
	if cap <= 0 {
		return fmt.Errorf("serve: %s does not fit in GPU memory at TP=%d", c.Model, c.TensorParallel)
	}
	worst := float64(c.maxPromptTokens()+c.maxDecodeTokens()) *
		memory.KVBytesPerToken(c.Model) / float64(c.TensorParallel)
	if worst > cap {
		return fmt.Errorf("serve: one request's KV footprint (%.1f GB) exceeds per-GPU KV capacity (%.1f GB)",
			worst/1e9, cap/1e9)
	}
	return nil
}

// maxPromptTokens bounds the generated prompt lengths (the generator draws
// in [mean/2, 3·mean/2]; traces are explicit).
func (c Config) maxPromptTokens() int {
	m := c.PromptTokens
	for _, t := range c.Trace {
		if t.PromptTokens > m {
			m = t.PromptTokens
		}
	}
	return m + m/2
}

func (c Config) maxDecodeTokens() int {
	m := c.DecodeTokens
	for _, t := range c.Trace {
		if t.DecodeTokens > m {
			m = t.DecodeTokens
		}
	}
	return m + m/2
}

// Name returns a short scenario label.
func (c Config) Name() string {
	place := "colocated"
	if c.Disaggregated {
		place = "disaggregated"
	}
	if c.Topo != topology.PaperTopo {
		place = c.Topo
	}
	return fmt.Sprintf("serve/%s/tp%d/%s", place, c.TensorParallel, c.Arrival)
}

// ScenarioKey returns the canonical cache key of the scenario: every field
// that affects the simulated outcome, in a fixed order.
func (c Config) ScenarioKey() string {
	return fmt.Sprintf("serve m%+v tp%d n%d dis%t topo%q a%d r%g cc%d q%d w%d p%d d%d b%d seed%d slo%d/%d win%d roce%g nic%g tr%v",
		c.Model, c.TensorParallel, c.Nodes, c.Disaggregated, c.Topo,
		c.Arrival, c.RatePerSec, c.Concurrency, c.Requests, c.Warmup,
		c.PromptTokens, c.DecodeTokens, c.MaxBatch, c.Seed,
		int64(c.SLOTTFT), int64(c.SLOTBT), int64(c.Window),
		c.RoCEBW, c.NICBW, c.Trace)
}
