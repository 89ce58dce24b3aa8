package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"llmbw/internal/sim"
)

// Percentiles summarizes a latency distribution with nearest-rank
// percentiles. Fields are integer nanoseconds so encoded results are
// byte-stable across runs and platforms.
type Percentiles struct {
	Mean sim.Time `json:"mean_ns"`
	P50  sim.Time `json:"p50_ns"`
	P95  sim.Time `json:"p95_ns"`
	P99  sim.Time `json:"p99_ns"`
	Max  sim.Time `json:"max_ns"`
}

// percentiles computes nearest-rank percentiles over samples (consumed:
// sorted in place). Zero value for an empty set.
func percentiles(samples []sim.Time) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum sim.Time
	for _, s := range samples {
		sum += s
	}
	rank := func(p float64) sim.Time {
		i := int(p*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	return Percentiles{
		Mean: sum / sim.Time(len(samples)),
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Max:  samples[len(samples)-1],
	}
}

// Result is the outcome of one serving scenario. All times are integer
// nanoseconds and all derived rates are computed the same way every run, so
// an encoded Result is byte-stable.
type Result struct {
	Name          string `json:"name"`
	Model         string `json:"model"`
	TP            int    `json:"tensor_parallel"`
	Nodes         int    `json:"nodes"`
	Disaggregated bool   `json:"disaggregated"`
	Topo          string `json:"topo"`
	Arrival       string `json:"arrival"`

	Requests  int      `json:"requests"`
	Measured  int      `json:"measured"` // completions after warmup
	SLOOk     int      `json:"slo_ok"`   // measured completions meeting both SLOs
	Makespan  sim.Time `json:"makespan_ns"`
	TokensOut int64    `json:"tokens_out"` // generated tokens of measured requests

	OfferedRPS    float64 `json:"offered_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	TokensPerSec  float64 `json:"tokens_per_sec"`

	TTFT Percentiles `json:"ttft"`
	TBT  Percentiles `json:"tbt"`

	DecodeSteps   int64   `json:"decode_steps"`
	MeanBatch     float64 `json:"mean_batch"`
	KVPeakBytes   float64 `json:"kv_peak_bytes"`   // per GPU
	KVCapBytes    float64 `json:"kv_cap_bytes"`    // per GPU
	KVPeakPercent float64 `json:"kv_peak_percent"` // peak / capacity

	reqs []request // retained for WriteRequestLog
}

// result computes the scenario metrics from the completed request set. The
// KV peak is the fullest decode replica's. The warmup window is defined in
// completion order: the first cfg.Warmup completions are excluded from
// every latency and rate metric.
func (r *Runner) result(end sim.Time) *Result {
	cfg, reqs := r.cfg, r.reqs
	var kvPeak float64
	for _, rep := range r.replicas {
		kvPeak = max(kvPeak, rep.kvPeak)
	}
	res := &Result{
		Name:          cfg.Name(),
		Model:         cfg.Model.String(),
		TP:            cfg.TensorParallel,
		Nodes:         cfg.Nodes,
		Disaggregated: cfg.Disaggregated,
		Topo:          cfg.Topo,
		Arrival:       cfg.Arrival.String(),
		Requests:      len(reqs),
		Makespan:      end,
		DecodeSteps:   r.steps,
		KVPeakBytes:   kvPeak,
		KVCapBytes:    r.kvCap,
		reqs:          reqs,
	}
	if cfg.Arrival == OpenLoop {
		res.OfferedRPS = cfg.RatePerSec
	}
	if r.steps > 0 {
		res.MeanBatch = float64(r.batchSum) / float64(r.steps)
	}
	if r.kvCap > 0 {
		res.KVPeakPercent = 100 * kvPeak / r.kvCap
	}

	// Completion order defines the warmup window.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := &reqs[order[a]], &reqs[order[b]]
		if qa.done != qb.done {
			return qa.done < qb.done
		}
		return qa.id < qb.id
	})
	measured := order[cfg.Warmup:]
	res.Measured = len(measured)
	if len(measured) == 0 {
		return res
	}

	ttft := make([]sim.Time, 0, len(measured))
	tbt := make([]sim.Time, 0, len(measured))
	var windowStart sim.Time
	if cfg.Warmup > 0 {
		windowStart = reqs[order[cfg.Warmup-1]].done
	}
	windowEnd := reqs[order[len(order)-1]].done
	for _, i := range measured {
		q := &reqs[i]
		ttft = append(ttft, q.ttft())
		if q.decode > 1 {
			tbt = append(tbt, q.tbt())
		}
		res.TokensOut += int64(q.decode)
		if q.ttft() <= cfg.SLOTTFT && q.tbt() <= cfg.SLOTBT {
			res.SLOOk++
		}
	}
	if span := windowEnd - windowStart; span > 0 {
		secs := span.ToSeconds()
		res.ThroughputRPS = float64(res.Measured) / secs
		res.GoodputRPS = float64(res.SLOOk) / secs
		res.TokensPerSec = float64(res.TokensOut) / secs
	}
	res.TTFT = percentiles(ttft)
	res.TBT = percentiles(tbt)
	return res
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d req, %.1f req/s (%.1f goodput), %.0f tok/s, TTFT p99 %v, TBT p99 %v, KV peak %.0f%%",
		r.Name, r.Requests, r.ThroughputRPS, r.GoodputRPS, r.TokensPerSec,
		r.TTFT.P99, r.TBT.P99, r.KVPeakPercent)
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteRequestLog writes the per-request NDJSON log in request-id order:
// one line per request with integer-nanosecond fields only, the byte-stable
// artifact the determinism A/B harness compares across engine shard counts.
func (r *Result) WriteRequestLog(w io.Writer) error {
	for i := range r.reqs {
		q := &r.reqs[i]
		_, err := fmt.Fprintf(w,
			"{\"id\":%d,\"arrival_ns\":%d,\"prompt_tokens\":%d,\"decode_tokens\":%d,\"admit_ns\":%d,\"first_token_ns\":%d,\"done_ns\":%d,\"ttft_ns\":%d,\"tbt_ns\":%d}\n",
			q.id, int64(q.arrival), q.prompt, q.decode,
			int64(q.admit), int64(q.first), int64(q.done),
			int64(q.ttft()), int64(q.tbt()))
		if err != nil {
			return err
		}
	}
	return nil
}
