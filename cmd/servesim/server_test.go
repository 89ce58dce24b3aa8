package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"llmbw/internal/model"
	"llmbw/internal/serve"
	"llmbw/internal/train"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestRunGolden pins the /run response bytes for a fixed scenario — the
// serving layer's ordered-map-emit audit (encoding/json sorts the bandwidth
// map keys, so the bytes are stable run to run).
func TestRunGolden(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/run", `{"strategy":"ddp","layers":2,"iterations":1,"warmup":1}`)
	if code != http.StatusOK {
		t.Fatalf("/run = %d: %s", code, body)
	}
	checkGolden(t, "run_ddp.golden", body)
}

// TestSweepGolden pins the /sweep response bytes.
func TestSweepGolden(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/sweep", `{"strategy":"ddp","sizes":"0.35,0.7","iterations":1,"warmup":1}`)
	if code != http.StatusOK {
		t.Fatalf("/sweep = %d: %s", code, body)
	}
	checkGolden(t, "sweep_ddp.golden", body)
}

// TestRunMatchesBatchCLI: the A/B contract — a servesim /run response is
// byte-identical to what the batch path (train.RunCached + Result.WriteJSON,
// the emitter behind bwchar/whatif output) produces for the same scenario.
func TestRunMatchesBatchCLI(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/run", `{"strategy":"zero2","layers":4,"iterations":1,"warmup":1}`)
	if code != http.StatusOK {
		t.Fatalf("/run = %d: %s", code, body)
	}

	cfg := train.Config{Strategy: train.ZeRO2, Model: model.NewGPT(4), Iterations: 1, Warmup: 1}
	res, err := train.RunCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("servesim /run diverges from the batch emitter.\nserve:\n%s\nbatch:\n%s", body, want.Bytes())
	}
}

// TestSweepMatchesBatchCLI: /sweep's default response carries exactly the
// bytes `sweep -json` emits (train.WriteSummariesJSON over the same points).
func TestSweepMatchesBatchCLI(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/sweep", `{"strategy":"ddp","sizes":"0.35,0.7","iterations":1,"warmup":1}`)
	if code != http.StatusOK {
		t.Fatalf("/sweep = %d: %s", code, body)
	}

	var results []*train.Result
	for _, layers := range []int{model.LayersForParams(0.35e9), model.LayersForParams(0.7e9)} {
		res, err := train.RunCached(train.Config{
			Strategy: train.DDP, Model: model.NewGPT(layers), Iterations: 1, Warmup: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var want bytes.Buffer
	if err := train.WriteSummariesJSON(&want, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("servesim /sweep diverges from sweep -json.\nserve:\n%s\nbatch:\n%s", body, want.Bytes())
	}
}

// TestSweepStream: ?stream=1 delivers the same summaries as the array
// response, one compact JSON object per line, in sweep order.
func TestSweepStream(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/sweep?stream=1", `{"strategy":"ddp","sizes":"0.35,0.7","iterations":1,"warmup":1}`)
	if code != http.StatusOK {
		t.Fatalf("/sweep?stream=1 = %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream produced %d lines, want 2:\n%s", len(lines), body)
	}
	var stream []train.Summary
	for _, line := range lines {
		var s train.Summary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("stream line is not a summary: %v\n%s", err, line)
		}
		stream = append(stream, s)
	}

	_, arr := post(t, ts, "/sweep", `{"strategy":"ddp","sizes":"0.35,0.7","iterations":1,"warmup":1}`)
	var batch []train.Summary
	if err := json.Unmarshal(arr, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(stream) {
		t.Fatalf("stream has %d summaries, array %d", len(stream), len(batch))
	}
	for i := range batch {
		if stream[i].Config != batch[i].Config || stream[i].TFLOPs != batch[i].TFLOPs ||
			stream[i].Layers != batch[i].Layers {
			t.Errorf("point %d diverges: stream %+v vs array %+v", i, stream[i], batch[i])
		}
	}
}

// TestRunCoalescing: N concurrent identical requests produce exactly one
// underlying simulation (the result tier's misses count computations
// started) and byte-identical responses.
func TestRunCoalescing(t *testing.T) {
	ts := httptest.NewServer(newServer(4))
	defer ts.Close()
	// A config no other test uses, so the miss delta isolates this test; the
	// reset drops the entry an earlier repetition (-count) cached.
	train.ResetRunCache()
	body := `{"strategy":"zero1","layers":3,"iterations":2,"warmup":1}`
	before := train.RunCacheStats()

	const n = 8
	responses := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, b := post(t, ts, "/run", body)
			if code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, code, b)
			}
			responses[i] = b
		}()
	}
	wg.Wait()

	after := train.RunCacheStats()
	if got := after.Misses - before.Misses; got != 1 {
		t.Errorf("%d simulations for %d identical requests; want exactly 1 (coalesced)", got, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("response %d differs from response 0:\n%s\nvs\n%s", i, responses[i], responses[0])
		}
	}
}

// TestStatsProbe: /stats reports every cache tier with coherent counters.
func TestStatsProbe(t *testing.T) {
	ts := httptest.NewServer(newServer(3))
	defer ts.Close()
	if code, body := post(t, ts, "/run", `{"strategy":"ddp","layers":2,"iterations":1,"warmup":1}`); code != http.StatusOK {
		t.Fatalf("warm-up /run = %d: %s", code, body)
	}
	if code, body := post(t, ts, "/serve", serveBody); code != http.StatusOK {
		t.Fatalf("warm-up /serve = %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Parallel != 3 {
		t.Errorf("parallel = %d, want 3", stats.Parallel)
	}
	tiers := map[string]bool{}
	for i, c := range stats.Caches {
		tiers[c.Name] = true
		if i > 0 && stats.Caches[i-1].Name > c.Name {
			t.Errorf("stats tiers unsorted: %q before %q", stats.Caches[i-1].Name, c.Name)
		}
	}
	for _, want := range []string{"train.results", "serve.results", "train.schedules", "topology.blueprints", "collective.shapes"} {
		if !tiers[want] {
			t.Errorf("stats missing tier %q (have %v)", want, tiers)
		}
	}
}

// TestBadRequests pins the error surface.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(1))
	defer ts.Close()
	cases := []struct {
		path, body string
		want       int
	}{
		{"/run", `{"strategy":"warp-drive"}`, http.StatusBadRequest},
		{"/run", `{"strategy":"ddp","offload":"tape"}`, http.StatusBadRequest},
		{"/run", `not json`, http.StatusBadRequest},
		{"/run", `{"strategy":"ddp","algo":"2level"}`, http.StatusBadRequest},
		{"/sweep", `{"strategy":"ddp","sizes":"banana"}`, http.StatusBadRequest},
		{"/run", `{"strategy":"megatron","offload":"cpu","layers":2}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if code, body := post(t, ts, tc.path, tc.body); code != tc.want {
			t.Errorf("POST %s %s = %d, want %d (%s)", tc.path, tc.body, code, tc.want, body)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", resp.StatusCode)
	}
}

// TestSweepRejectsUnbuildableTopo: a pod size that overflows the pod count
// would panic inside a sweep worker goroutine, where net/http cannot recover
// it, taking the whole daemon down; a radix below 3 would hang the
// port-count model. Both must be answered with a 4xx, and the daemon must
// keep answering afterwards.
func TestSweepRejectsUnbuildableTopo(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	for _, topo := range []string{
		"fat-tree:nodes=8,pod=9223372036854775807",
		"fat-tree:nodes=8,radix=2",
	} {
		body := fmt.Sprintf(`{"strategy":"zero3","topo":%q,"sizes":"1,2","iterations":1,"warmup":1}`, topo)
		if code, resp := post(t, ts, "/sweep", body); code < 400 || code >= 500 {
			t.Errorf("POST /sweep topo %s = %d, want 4xx (%s)", topo, code, resp)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after rejected sweeps = %d, want 200", resp.StatusCode)
	}
}

// serveBody is the fixed serving scenario the /serve tests query.
const serveBody = `{"requests":16,"rate_per_sec":16,"prompt_tokens":256,"decode_tokens":16,"max_batch":8}`

// TestServeGolden pins the /serve response bytes for a fixed scenario.
func TestServeGolden(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/serve", serveBody)
	if code != http.StatusOK {
		t.Fatalf("/serve = %d: %s", code, body)
	}
	checkGolden(t, "serve_colocated.golden", body)
}

// TestServeMatchesLibrary: a /serve response is byte-identical to what
// serve.RunCached + Result.WriteJSON produce for the same scenario.
func TestServeMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/serve", serveBody)
	if code != http.StatusOK {
		t.Fatalf("/serve = %d: %s", code, body)
	}
	res, err := serve.RunCached(serve.Config{
		Requests: 16, RatePerSec: 16, PromptTokens: 256, DecodeTokens: 16, MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("servesim /serve diverges from the library emitter.\nserve:\n%s\nlib:\n%s", body, want.Bytes())
	}
}

// TestServeRequestLog: ?log=1 returns the per-request NDJSON log, one line
// per simulated request.
func TestServeRequestLog(t *testing.T) {
	ts := httptest.NewServer(newServer(2))
	defer ts.Close()
	code, body := post(t, ts, "/serve?log=1", serveBody)
	if code != http.StatusOK {
		t.Fatalf("/serve?log=1 = %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("request log has %d lines, want 16", len(lines))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if _, ok := rec["ttft_ns"]; !ok {
			t.Fatalf("log line missing ttft_ns: %q", line)
		}
	}
}

// TestServeBadRequests pins the /serve error surface.
func TestServeBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(1))
	defer ts.Close()
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"arrival":"carrier-pigeon"}`, http.StatusBadRequest},
		{`{"tp":9}`, http.StatusUnprocessableEntity},
		{`{"topo":"mesh:nodes=8"}`, http.StatusUnprocessableEntity},
		{`{"disaggregated":true,"nodes":1}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if code, body := post(t, ts, "/serve", tc.body); code != tc.want {
			t.Errorf("POST /serve %s = %d, want %d (%s)", tc.body, code, tc.want, body)
		}
	}
}

// TestHealthz: 200 while serving, 503 once the drain flag is up.
func TestHealthz(t *testing.T) {
	srv := newServer(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get(); code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 ok", code, body)
	}
	srv.draining.Store(true)
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", code)
	}
}
