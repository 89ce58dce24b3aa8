package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"llmbw/internal/sim"
)

// smallCfg is a quick testbed scenario shared by the smoke tests.
func smallCfg() Config {
	return Config{
		Requests:     24,
		RatePerSec:   16,
		PromptTokens: 256,
		DecodeTokens: 16,
		MaxBatch:     8,
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSane verifies the invariants every completed scenario must satisfy.
func checkSane(t *testing.T, res *Result) {
	t.Helper()
	if res.Measured != res.Requests {
		t.Errorf("%s: measured %d of %d requests", res.Name, res.Measured, res.Requests)
	}
	if res.Makespan <= 0 {
		t.Errorf("%s: non-positive makespan %v", res.Name, res.Makespan)
	}
	if res.TTFT.P50 <= 0 || res.TTFT.Max < res.TTFT.P99 || res.TTFT.P99 < res.TTFT.P50 {
		t.Errorf("%s: malformed TTFT percentiles %+v", res.Name, res.TTFT)
	}
	if res.TBT.P50 <= 0 {
		t.Errorf("%s: non-positive TBT p50", res.Name)
	}
	if res.DecodeSteps <= 0 || res.MeanBatch < 1 {
		t.Errorf("%s: implausible decode stats: %d steps, mean batch %.2f",
			res.Name, res.DecodeSteps, res.MeanBatch)
	}
	if res.KVPeakBytes <= 0 || res.KVPeakBytes > res.KVCapBytes {
		t.Errorf("%s: KV peak %.0f outside (0, %.0f]", res.Name, res.KVPeakBytes, res.KVCapBytes)
	}
	for i := range res.reqs {
		q := &res.reqs[i]
		if q.first < q.arrival || q.done < q.first || q.decoded != q.decode {
			t.Fatalf("%s: request %d has inconsistent lifecycle %+v", res.Name, q.id, *q)
		}
	}
}

func TestServeColocatedOpenLoop(t *testing.T) {
	checkSane(t, mustRun(t, smallCfg()))
}

func TestServeClosedLoop(t *testing.T) {
	cfg := smallCfg()
	cfg.Arrival = ClosedLoop
	cfg.Concurrency = 4
	res := mustRun(t, cfg)
	checkSane(t, res)
	if res.OfferedRPS != 0 {
		t.Errorf("closed loop reports offered load %v", res.OfferedRPS)
	}
}

func TestServeTraceDriven(t *testing.T) {
	cfg := smallCfg()
	cfg.Arrival = TraceDriven
	cfg.Trace = []TraceReq{
		{At: 0, PromptTokens: 128, DecodeTokens: 8},
		{At: sim.Millisecond, PromptTokens: 700, DecodeTokens: 1},
		{At: 2 * sim.Millisecond, PromptTokens: 64, DecodeTokens: 24},
	}
	res := mustRun(t, cfg)
	checkSane(t, res)
	if res.Requests != len(cfg.Trace) {
		t.Fatalf("trace run simulated %d requests, want %d", res.Requests, len(cfg.Trace))
	}
	// The single-token request completes at its first token.
	q := &res.reqs[1]
	if q.done != q.first {
		t.Errorf("single-token request: done %v != first token %v", q.done, q.first)
	}
}

func TestServeDisaggregated(t *testing.T) {
	cfg := smallCfg()
	cfg.Disaggregated = true
	res := mustRun(t, cfg)
	checkSane(t, res)

	// Shipping the KV cache across the RoCE fabric must cost first-token
	// latency relative to the colocated placement under light load.
	colo := mustRun(t, smallCfg())
	if res.TTFT.P50 <= colo.TTFT.P50 {
		t.Errorf("disaggregated TTFT p50 %v not above colocated %v (KV shipment is free?)",
			res.TTFT.P50, colo.TTFT.P50)
	}
}

// TestServeDisaggregatedBandwidth pins the paper's bandwidth sensitivity on
// the serving path: starving the inter-node fabric must inflate TTFT, since
// every admitted request's KV cache crosses it.
func TestServeDisaggregatedBandwidth(t *testing.T) {
	cfg := smallCfg()
	cfg.Disaggregated = true
	fast := mustRun(t, cfg)
	cfg.RoCEBW = 1.25e9 // 10 GbE-class
	slow := mustRun(t, cfg)
	if slow.TTFT.P50 <= fast.TTFT.P50 {
		t.Errorf("TTFT p50 did not grow when fabric bandwidth dropped: %v vs %v",
			slow.TTFT.P50, fast.TTFT.P50)
	}
	// Decode never touches the inter-node fabric, so TBT must be unchanged.
	if slow.TBT.P50 != fast.TBT.P50 {
		t.Errorf("TBT p50 changed with fabric bandwidth: %v vs %v", slow.TBT.P50, fast.TBT.P50)
	}
}

// TestServeTPSensitivity: decode is memory-bound, so widening tensor
// parallelism (splitting the weight sweep) must shrink time between tokens.
func TestServeTPSensitivity(t *testing.T) {
	cfg := smallCfg()
	cfg.TensorParallel = 1
	tp1 := mustRun(t, cfg)
	cfg.TensorParallel = 4
	tp4 := mustRun(t, cfg)
	if tp4.TBT.P50 >= tp1.TBT.P50 {
		t.Errorf("TBT p50 did not improve with TP: tp4 %v vs tp1 %v", tp4.TBT.P50, tp1.TBT.P50)
	}
}

func TestServeDCTopos(t *testing.T) {
	for _, tc := range []struct {
		topo   string
		disagg bool
	}{
		{"fat-tree:nodes=8", false},
		{"fat-tree:nodes=8", true},
		{"rail-only:nodes=8,pod=1", true},
		{"dragonfly:nodes=8", false},
	} {
		cfg := smallCfg()
		cfg.Topo = tc.topo
		cfg.Disaggregated = tc.disagg
		res := mustRun(t, cfg)
		checkSane(t, res)
		if res.Nodes != 8 {
			t.Errorf("%s: result reports %d nodes, want 8", res.Name, res.Nodes)
		}
	}
}

// TestServeDCBandwidth: on a disaggregated fat-tree, KV shipment crosses the
// rail NICs, so cutting NIC bandwidth must inflate TTFT.
func TestServeDCBandwidth(t *testing.T) {
	cfg := smallCfg()
	cfg.Topo = "fat-tree:nodes=8"
	cfg.Disaggregated = true
	fast := mustRun(t, cfg)
	cfg.NICBW = 2.5e9
	slow := mustRun(t, cfg)
	if slow.TTFT.P50 <= fast.TTFT.P50 {
		t.Errorf("DC TTFT p50 did not grow when NIC bandwidth dropped: %v vs %v",
			slow.TTFT.P50, fast.TTFT.P50)
	}
}

// requestLog renders the scenario's per-request NDJSON log.
func requestLog(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteRequestLog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeDeterminismAB pins the determinism contract: the per-request log
// is byte-identical between serial-merge and parallel-window execution, for
// every placement and fabric family.
func TestServeDeterminismAB(t *testing.T) {
	defer func(s bool) { sim.Sharded = s }(sim.Sharded)
	for _, base := range []struct {
		name string
		cfg  Config
	}{
		{"colocated", smallCfg()},
		{"disaggregated", func() Config { c := smallCfg(); c.Disaggregated = true; return c }()},
		{"dc-fat-tree", func() Config { c := smallCfg(); c.Topo = "fat-tree:nodes=8"; c.Disaggregated = true; return c }()},
	} {
		sim.Sharded = false
		ref := requestLog(t, base.cfg)
		if ref == "" {
			t.Fatalf("%s: empty request log", base.name)
		}
		sim.Sharded = true
		if got := requestLog(t, base.cfg); got != ref {
			t.Errorf("%s: request log diverged between serial merge and parallel windows", base.name)
		}
	}
}

// steadyRunner builds a colocated runner whose decode batch can be pinned
// full: closed loop at full concurrency, long generations.
func steadyRunner(tb testing.TB) *Runner {
	cfg := Config{
		Arrival:      ClosedLoop,
		Concurrency:  8,
		Requests:     8,
		MaxBatch:     8,
		PromptTokens: 256,
		DecodeTokens: 128,
		Window:       1 << 40,
	}
	r, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// fillBatch admits every request and runs its prefill, leaving the decode
// batch at full width.
func fillBatch(r *Runner, p *sim.Proc) {
	r.stepWaiter = sim.NewWaiter(p)
	r.preWaiter = r.stepWaiter
	for r.nextArr < len(r.reqs) {
		q := &r.reqs[r.nextArr]
		r.reserve(q, p.Now())
		r.runPrefill(q)
	}
	r.admitReady()
}

// TestServeDecodeReplayAllocFree pins the serving tentpole's steady-state
// claim: once the executor pools are warm, replaying decode steps allocates
// nothing.
func TestServeDecodeReplayAllocFree(t *testing.T) {
	// runtime.MemStats is process-wide: at GOMAXPROCS > 1 the runtime's own
	// work (a sudog for the proc↔engine channel handoff after the goroutine
	// changes Ps, the background scavenger's timer) can land inside the
	// window. Pin it to 1, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := steadyRunner(t)
	const measured = 8
	var mallocs uint64
	r.eng.Go("alloc-probe", func(p *sim.Proc) {
		fillBatch(r, p)
		for i := 0; i < 4; i++ {
			r.decodeStep() // warm every executor pool
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			r.decodeStep()
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		if r.bn != len(r.batch) {
			t.Errorf("decode batch drained to %d during measurement", r.bn)
		}
	})
	r.eng.Run()
	if got := float64(mallocs) / measured; got != 0 {
		t.Errorf("steady decode replay allocates %v allocs/step, want 0", got)
	}
}

// BenchmarkServeDecodeSteady measures one full-batch decode step end to end
// (roofline span, two tensor-parallel all-reduces through compiled plans,
// event core). Allocs/op is pinned at zero by TestServeDecodeReplayAllocFree.
func BenchmarkServeDecodeSteady(b *testing.B) {
	r := steadyRunner(b)
	r.eng.Go("bench", func(p *sim.Proc) {
		fillBatch(r, p)
		for i := 0; i < 4; i++ {
			r.decodeStep()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < r.bn; j++ {
				r.batch[j].decoded = 1 // hold the batch at full width
			}
			r.decodeStep()
		}
	})
	r.eng.Run()
}

func TestServeRunCached(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	// Reset drops entries but keeps the counters, so count this test's
	// lookups as deltas (repeated runs under -count share the tier).
	before := RunCacheStats()
	cfg := smallCfg()
	a, err := RunCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical configs did not share one cached result")
	}
	st := RunCacheStats()
	hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
	if st.Name != "serve.results" || hits != 1 || misses != 1 {
		t.Errorf("unexpected cache stats %+v (this test: %d hits, %d misses)", st, hits, misses)
	}
}

func TestServeConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"tp", func(c *Config) { c.TensorParallel = 5 }},
		{"warmup", func(c *Config) { c.Warmup = 99 }},
		{"batch", func(c *Config) { c.MaxBatch = MaxBatchLimit + 1 }},
		{"nodes", func(c *Config) { c.Nodes = 3 }},
		{"disagg-nodes", func(c *Config) { c.Disaggregated = true; c.Nodes = 1 }},
		{"trace", func(c *Config) { c.Arrival = TraceDriven }},
		{"topo", func(c *Config) { c.Topo = "mesh:nodes=8" }},
		{"kv", func(c *Config) { c.PromptTokens = 1 << 20 }},
	} {
		cfg := smallCfg()
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestArrivalRoundTrip(t *testing.T) {
	for _, a := range []Arrival{OpenLoop, ClosedLoop, TraceDriven} {
		got, err := ParseArrival(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArrival(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseArrival("bogus"); err == nil {
		t.Error("bogus arrival accepted")
	}
	if got := fmt.Sprint(Arrival(9)); got != "Arrival(9)" {
		t.Errorf("unexpected arrival string %q", got)
	}
}
