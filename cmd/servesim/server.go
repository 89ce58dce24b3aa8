package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/runner"
	"llmbw/internal/scenario"
	"llmbw/internal/serve"
	"llmbw/internal/sim"
	"llmbw/internal/train"
)

var strategies = map[string]train.Strategy{
	"ddp": train.DDP, "megatron": train.Megatron,
	"zero1": train.ZeRO1, "zero2": train.ZeRO2, "zero3": train.ZeRO3,
}

var offloads = map[string]memory.Offload{
	"": memory.NoOffload, "none": memory.NoOffload, "cpu": memory.CPUOffload,
	"nvme-opt": memory.NVMeOptimizer, "nvme-opt+param": memory.NVMeOptimizerAndParams,
}

// server answers what-if queries from the warm-artifact cache. The semaphore
// bounds concurrently *running* simulations across all requests; coalesced
// duplicates of an in-flight configuration wait on the result tier's
// singleflight instead of simulating again.
type server struct {
	mux      *http.ServeMux
	sem      chan struct{}
	parallel int
	draining atomic.Bool // set when shutdown has begun; flips /healthz
}

// newServer builds the handler. parallel must be >= 1 (callers clamp via
// runner.ClampParallel).
func newServer(parallel int) *server {
	s := &server{sem: make(chan struct{}, parallel), parallel: parallel}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/serve", s.handleServe)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// acquire/release bracket one running simulation.
func (s *server) acquire() { s.sem <- struct{}{} }
func (s *server) release() { <-s.sem }

// scenarioRequest is the JSON query shape shared by /run and /sweep.
type scenarioRequest struct {
	Strategy    string  `json:"strategy"`
	Offload     string  `json:"offload"`
	Nodes       int     `json:"nodes"`
	Layers      int     `json:"layers"`
	SizeB       float64 `json:"size_b"`
	BatchPerGPU int     `json:"batch_per_gpu"`
	Iterations  int     `json:"iterations"`
	Warmup      int     `json:"warmup"`
	Topo        string  `json:"topo"`
	Algo        string  `json:"algo"`
	Shards      int     `json:"shards"`

	// Sizes is /sweep's model-size list (model.ParseSizes syntax). /run
	// ignores it.
	Sizes string `json:"sizes"`
}

// baseConfig translates the request into a train.Config without a model;
// resolveModel fills the model per point.
func (req *scenarioRequest) baseConfig() (train.Config, error) {
	strat, ok := strategies[req.Strategy]
	if !ok {
		return train.Config{}, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	off, ok := offloads[req.Offload]
	if !ok {
		return train.Config{}, fmt.Errorf("unknown offload %q", req.Offload)
	}
	if req.Algo != "" && req.Topo == "" {
		return train.Config{}, fmt.Errorf("algo requires topo")
	}
	return train.Config{
		Strategy:    strat,
		Offload:     off,
		Nodes:       req.Nodes,
		BatchPerGPU: req.BatchPerGPU,
		Iterations:  req.Iterations,
		Warmup:      req.Warmup,
		Topo:        req.Topo,
		Algo:        req.Algo,
		Shards:      req.Shards,
	}, nil
}

// resolveModel picks the run's model: explicit layers, a parameter-count
// target, or (neither given) the largest fit — the same resolution order the
// batch CLIs use.
func (req *scenarioRequest) resolveModel(cfg train.Config) (model.GPT, error) {
	if req.Layers > 0 {
		return model.NewGPT(req.Layers), nil
	}
	if req.SizeB > 0 {
		return model.NewGPT(model.LayersForParams(int64(req.SizeB * 1e9))), nil
	}
	maxLayers := cfg.Profile().MaxLayers(model.DefaultBatchSize, 4)
	if maxLayers == 0 {
		return model.GPT{}, fmt.Errorf("configuration fits no model at all")
	}
	return model.NewGPT(maxLayers), nil
}

// decode parses the request body, enforcing POST.
func decode(w http.ResponseWriter, r *http.Request, req *scenarioRequest) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleRun answers one configuration with its run summary. The body is
// written by the same emitter the batch CLIs use (Result.WriteJSON), so a
// servesim response is byte-identical to `bwchar`/`whatif` output for the
// same scenario.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req scenarioRequest
	if !decode(w, r, &req) {
		return
	}
	cfg, err := req.baseConfig()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if cfg.Model, err = req.resolveModel(cfg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.acquire()
	res, err := train.RunCached(cfg)
	s.release()
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.WriteJSON(w)
}

// handleSweep answers a model-size sweep. The default response is the same
// JSON array `sweep -json` emits; ?stream=1 switches to newline-delimited
// summaries flushed progressively in sweep order as points complete (the
// worker pool's ordered-prefix flush), so a client watching a long sweep sees
// each point as soon as every earlier point is out.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req scenarioRequest
	if !decode(w, r, &req) {
		return
	}
	base, err := req.baseConfig()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxLayers := base.Profile().MaxLayers(model.DefaultBatchSize, 4)
	if maxLayers == 0 {
		http.Error(w, "configuration fits no model at all", http.StatusBadRequest)
		return
	}
	sizes := req.Sizes
	if sizes == "" {
		sizes = "max"
	}
	layerCounts, err := model.ParseSizes(sizes, maxLayers)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Oversized entries do not fit this configuration; like `sweep -json`,
	// they are omitted from the response.
	fit := layerCounts[:0]
	for _, l := range layerCounts {
		if l <= maxLayers {
			fit = append(fit, l)
		}
	}

	runPoint := func(i int) (*train.Result, error) {
		cfg := base
		cfg.Model = model.NewGPT(fit[i])
		s.acquire()
		defer s.release()
		return train.RunCached(cfg)
	}

	if r.URL.Query().Get("stream") == "1" {
		s.streamSweep(w, fit, runPoint)
		return
	}
	results := make([]*train.Result, len(fit))
	err = runner.Map(s.parallel, len(fit), func(i int) error {
		res, err := runPoint(i)
		results[i] = res
		return err
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	train.WriteSummariesJSON(w, results)
}

// streamSweep emits one compact summary per line, flushing after every
// completed contiguous prefix. Errors surface as a final {"error": ...} line
// (the status was already sent with the first flush).
func (s *server) streamSweep(w http.ResponseWriter, fit []int, runPoint func(i int) (*train.Result, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := io.Writer(w)
	if f, ok := w.(http.Flusher); ok {
		out = flushWriter{w: w, f: f}
	}
	jobs := make([]runner.Job, len(fit))
	for i := range fit {
		i := i
		jobs[i] = runner.Job{
			ID: fmt.Sprintf("point-%d", i),
			Run: func(buf io.Writer) error {
				res, err := runPoint(i)
				if err != nil {
					return err
				}
				line, err := json.Marshal(res.Summary())
				if err != nil {
					return err
				}
				line = append(line, '\n')
				_, err = buf.Write(line)
				return err
			},
		}
	}
	if err := runner.Run(out, s.parallel, jobs); err != nil {
		fmt.Fprintf(out, "{\"error\":%q}\n", err.Error())
	}
}

// flushWriter pushes every completed write to the client immediately —
// runner.Run writes exactly one completed prefix chunk at a time, so each
// flush is a well-formed set of NDJSON lines.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// serveRequest is the JSON query shape of POST /serve. Unset fields take the
// canonical serving scenario's defaults (serve.Config.withDefaults).
type serveRequest struct {
	Layers         int              `json:"layers"`
	SizeB          float64          `json:"size_b"`
	TensorParallel int              `json:"tp"`
	Nodes          int              `json:"nodes"`
	Disaggregated  bool             `json:"disaggregated"`
	Topo           string           `json:"topo"`
	Arrival        string           `json:"arrival"`
	RatePerSec     float64          `json:"rate_per_sec"`
	Concurrency    int              `json:"concurrency"`
	Requests       int              `json:"requests"`
	Warmup         int              `json:"warmup"`
	PromptTokens   int              `json:"prompt_tokens"`
	DecodeTokens   int              `json:"decode_tokens"`
	MaxBatch       int              `json:"max_batch"`
	Seed           uint64           `json:"seed"`
	Trace          []serve.TraceReq `json:"trace"`
	SLOTTFTMs      float64          `json:"slo_ttft_ms"`
	SLOTBTMs       float64          `json:"slo_tbt_ms"`
	RoCEBW         float64          `json:"roce_bw"`
	NICBW          float64          `json:"nic_bw"`
}

// config translates the request into a serve.Config.
func (req *serveRequest) config() (serve.Config, error) {
	arr, err := serve.ParseArrival(req.Arrival)
	if err != nil {
		return serve.Config{}, err
	}
	var g model.GPT
	switch {
	case req.Layers > 0:
		g = model.NewGPT(req.Layers)
	case req.SizeB > 0:
		g = model.NewGPT(model.LayersForParams(int64(req.SizeB * 1e9)))
	}
	return serve.Config{
		Model:          g,
		TensorParallel: req.TensorParallel,
		Nodes:          req.Nodes,
		Disaggregated:  req.Disaggregated,
		Topo:           req.Topo,
		Arrival:        arr,
		RatePerSec:     req.RatePerSec,
		Concurrency:    req.Concurrency,
		Requests:       req.Requests,
		Warmup:         req.Warmup,
		PromptTokens:   req.PromptTokens,
		DecodeTokens:   req.DecodeTokens,
		MaxBatch:       req.MaxBatch,
		Seed:           req.Seed,
		Trace:          req.Trace,
		SLOTTFT:        sim.Time(req.SLOTTFTMs * float64(sim.Millisecond)),
		SLOTBT:         sim.Time(req.SLOTBTMs * float64(sim.Millisecond)),
		RoCEBW:         req.RoCEBW,
		NICBW:          req.NICBW,
	}, nil
}

// handleServe answers one inference-serving scenario with its latency and
// goodput summary (serve.Result.WriteJSON). With ?log=1 the response is the
// per-request NDJSON log instead — the byte-stable artifact the determinism
// harness diffs.
func (s *server) handleServe(w http.ResponseWriter, r *http.Request) {
	var req serveRequest
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	cfg, err := req.config()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.acquire()
	res, err := serve.RunCached(cfg)
	s.release()
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if r.URL.Query().Get("log") == "1" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		res.WriteRequestLog(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.WriteJSON(w)
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503 once
// shutdown has begun (so load balancers stop routing during the drain).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// statsResponse is the /stats probe payload.
type statsResponse struct {
	Parallel int              `json:"parallel"`
	Caches   []scenario.Stats `json:"caches"`
}

// handleStats exposes the warm-artifact cache counters (every registered
// tier, sorted by name) and the simulation concurrency bound.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(statsResponse{Parallel: s.parallel, Caches: scenario.Snapshot()})
}
