package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"llmbw/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

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

// TestServeDeterminismAB checks that the sim.Sharded toggle leaves serving's
// per-request log untouched. Every case runs on one engine or one shard: the
// testbed cases on its plain sim.Engine, which the toggle never reaches, and
// the datacenter case on a one-shard ShardedEngine, where serial merge and a
// single parallel window pop events in the same order by construction. So it
// pins only that the sharded engine does not perturb one-shard serving; it
// cannot show a divergence between shards, and no placement or fabric family
// beyond these three is covered here.
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

// TestServeRequestLogGolden pins serving byte for byte on both fabric
// families: the JSON summary and the per-request log of every placement and
// arrival process, including closed-loop releases that cross datacenter
// replicas. Regenerate intentionally with
// `go test ./internal/serve -run RequestLogGolden -update-golden`.
func TestServeRequestLogGolden(t *testing.T) {
	base := Config{Requests: 32, RatePerSec: 200, PromptTokens: 256, DecodeTokens: 16, MaxBatch: 8}
	with := func(topo string, disagg bool, arrival Arrival) Config {
		c := base
		c.Topo = topo
		c.Disaggregated = disagg
		c.Arrival = arrival
		c.Concurrency = 12 // above MaxBatch, so admission waits on batch room
		return c
	}
	tp1 := with("", false, OpenLoop)
	tp1.TensorParallel = 1
	trace := with("", false, TraceDriven)
	trace.Trace = []TraceReq{
		{At: 0, PromptTokens: 128, DecodeTokens: 8},
		{At: 0, PromptTokens: 300, DecodeTokens: 12},
		{At: sim.Millisecond, PromptTokens: 700, DecodeTokens: 1},
		{At: 2 * sim.Millisecond, PromptTokens: 64, DecodeTokens: 24},
		{At: 2 * sim.Millisecond, PromptTokens: 512, DecodeTokens: 20},
		{At: 40 * sim.Millisecond, PromptTokens: 256, DecodeTokens: 16},
	}
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"testbed/colocated/open", with("", false, OpenLoop)},
		{"testbed/colocated/closed", with("", false, ClosedLoop)},
		{"testbed/colocated/trace", trace},
		{"testbed/disaggregated/open", with("", true, OpenLoop)},
		{"testbed/disaggregated/closed", with("", true, ClosedLoop)},
		{"testbed/colocated/tp1", tp1},
		{"fat-tree:nodes=8/colocated/open", with("fat-tree:nodes=8", false, OpenLoop)},
		{"fat-tree:nodes=8/colocated/closed", with("fat-tree:nodes=8", false, ClosedLoop)},
		{"fat-tree:nodes=8/disaggregated/open", with("fat-tree:nodes=8", true, OpenLoop)},
		{"fat-tree:nodes=8/disaggregated/closed", with("fat-tree:nodes=8", true, ClosedLoop)},
		{"rail-only:nodes=8,pod=1/disaggregated/open", with("rail-only:nodes=8,pod=1", true, OpenLoop)},
		{"dragonfly:nodes=8/colocated/open", with("dragonfly:nodes=8", false, OpenLoop)},
		{"fat-tree:nodes=2/disaggregated/open", with("fat-tree:nodes=2", true, OpenLoop)},
	} {
		res := mustRun(t, tc.cfg)
		checkSane(t, res)
		fmt.Fprintf(&buf, "## %s\n", tc.name)
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteRequestLog(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "request_logs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("serving summaries or request logs drifted from %s", path)
	}
}

// steadyRunner builds a colocated runner whose decode batch can be pinned
// full: closed loop at full concurrency, long generations.
func steadyRunner(tb testing.TB) *Runner {
	return steadyRunnerOn(tb, Config{})
}

// steadyRunnerOn builds the closed-loop decode probe's runner over base's
// fabric, tensor parallelism and request count (zero fields take the testbed
// defaults): 8 concurrent requests per replica, which fill its batch.
func steadyRunnerOn(tb testing.TB, base Config) *Runner {
	cfg := base
	cfg.Arrival = ClosedLoop
	if cfg.Requests == 0 {
		cfg.Requests = 8
	}
	cfg.Concurrency = cfg.Requests
	cfg.MaxBatch = 8
	cfg.PromptTokens = 256
	cfg.DecodeTokens = 128
	cfg.Window = 1 << 40
	r, err := NewRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// fillBatch admits every request of the runner's first decode replica and
// runs its prefill, leaving the decode batch at full width.
func fillBatch(r *Runner) *replica {
	rep := r.replicas[0]
	nop := func() {}
	for rep.next < len(rep.queue) {
		q := rep.queue[rep.next]
		if !r.startPrefill(rep, q, nop) {
			r.eng.Run()
		}
		r.finishPrefill(q)
	}
	rep.admitReady()
	return rep
}

// steadyDecoder fills r's first replica's batch, runs four decode steps
// (warming every collective plan and flow) and returns a function that runs
// one more step to its end, draining the engine.
func steadyDecoder(r *Runner) (*replica, func()) {
	rep := fillBatch(r)
	nop := func() {}
	step := func() {
		if !r.startDecode(rep, nop) {
			r.eng.Run()
		}
		r.finishDecode(rep)
	}
	for i := 0; i < 4; i++ {
		step()
	}
	return rep, step
}

// steadyPrefiller returns a function that runs the prompt pass of r's first
// request to its end on the node that admits it, draining the engine, after
// four such passes have warmed every collective plan and flow. It drives
// the step model directly, so admission state never moves.
func steadyPrefiller(r *Runner) func() {
	q := &r.reqs[0]
	pre, dec := r.admitterOf(q).node, r.replicaOf(q).node
	nop := func() {}
	step := func() {
		if !r.cost.prefill(q, pre, dec, nop) {
			r.eng.Run()
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	return step
}

// TestServeDecodeReplayAllocFree pins the serving tentpole's steady-state
// claim: once warm, a decode step through the shared scheduler and a prompt
// pass through either fabric's step model allocate nothing — the testbed's
// walker, collective plans and reused KV flows, and the datacenter's
// preallocated NVSwitch and KV flows.
func TestServeDecodeReplayAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		base    Config
		prefill bool // pin a prompt pass instead of a decode step
	}{
		{"testbed", Config{}, false},
		// Eight colocated replicas of eight requests each, TP=2 so every
		// step crosses the node's NVSwitch flow.
		{"fat-tree", Config{Topo: "fat-tree:nodes=8", TensorParallel: 2, Requests: 64}, false},
		{"testbed/prefill", Config{}, true},
		// The prefill node ships the KV cache to its decode peer over the
		// per-rank RoCE flows.
		{"testbed/disaggregated/prefill", Config{Disaggregated: true}, true},
		// A prefill-pool node's pass: NVSwitch flow, then the KV shipment
		// over the request's rail.
		{"fat-tree/disaggregated/prefill", Config{Topo: "fat-tree:nodes=8", TensorParallel: 2,
			Disaggregated: true, Requests: 64}, true},
	} {
		r := steadyRunnerOn(t, tc.base)
		if tc.prefill {
			if got := testing.AllocsPerRun(8, steadyPrefiller(r)); got != 0 {
				t.Errorf("%s: warm prefill pass allocates %v allocs/pass, want 0", tc.name, got)
			}
			continue
		}
		rep, step := steadyDecoder(r)
		if got := testing.AllocsPerRun(8, step); got != 0 {
			t.Errorf("%s: steady decode replay allocates %v allocs/step, want 0", tc.name, got)
		}
		if rep.bn != len(rep.batch) {
			t.Errorf("%s: decode batch drained to %d during measurement", tc.name, rep.bn)
		}
	}
}

// BenchmarkServeDecodeSteady measures one full-batch decode step end to end
// (the shared scheduler's step, the roofline span, two tensor-parallel
// all-reduces through compiled plans, event core). Allocs/op is pinned at
// zero by TestServeDecodeReplayAllocFree.
func BenchmarkServeDecodeSteady(b *testing.B) {
	rep, step := steadyDecoder(steadyRunner(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < rep.bn; j++ {
			rep.batch[j].decoded = 1 // hold the batch at full width
		}
		step()
	}
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
