package train

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func dcBase(strategy Strategy) Config {
	return Config{
		Strategy:   strategy,
		Model:      model.NewGPT(8),
		Topo:       "rail-only:nodes=8,pod=1",
		Iterations: 2,
		Warmup:     1,
	}
}

// TestDCFatTreeGolden pins generated-fabric training byte for byte: ZeRO-3 on
// a 256-node fat-tree under every collective algorithm, at 197 layers (10B
// parameters) and at the largest fit, serialized by WriteSummariesJSON. The
// 1- and 2-shard runs must both reproduce the file. Regenerate intentionally
// with `go test ./internal/train -run DCFatTreeGolden -update-golden`.
func TestDCFatTreeGolden(t *testing.T) {
	base := Config{Strategy: ZeRO3, Topo: "fat-tree:nodes=256", Iterations: 2, Warmup: 1}
	maxLayers := base.Profile().MaxLayers(model.DefaultBatchSize, 4)
	path := filepath.Join("testdata", "dc_fattree.golden")
	for _, shards := range []int{1, 2} {
		var results []*Result
		for _, algo := range []string{"flat", "2level", "multiring"} {
			for _, layers := range []int{197, maxLayers} {
				cfg := base
				cfg.Algo = algo
				cfg.Model = model.NewGPT(layers)
				cfg.Shards = shards
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%d layers/%d shards: %v", algo, layers, shards, err)
				}
				results = append(results, res)
			}
		}
		var buf bytes.Buffer
		if err := WriteSummariesJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		if *updateGolden && shards == 1 {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%d-shard fat-tree summaries drifted from %s.\n--- got ---\n%s", shards, path, buf.Bytes())
		}
	}
}

// TestDCShardedMatchesUnsharded extends the sharded A/B matrix to a
// multi-node collective workload on a generated fabric — the workload the
// PDES engine was built for. Every strategy × algorithm pairing must
// serialize identically at 1/2/4/8 shards, serial merge and parallel
// windows alike.
func TestDCShardedMatchesUnsharded(t *testing.T) {
	for _, strategy := range []Strategy{DDP, ZeRO3} {
		for _, algo := range []string{"flat", "2level", "multiring"} {
			cfg := dcBase(strategy)
			cfg.Algo = algo
			plain := runSharded(t, cfg, 0, false)
			for _, m := range []struct {
				name     string
				shards   int
				parallel bool
			}{
				{"shards=2 serial-merge", 2, false},
				{"shards=2 parallel", 2, true},
				{"shards=4 parallel", 4, true},
				{"shards=8 parallel", 8, true},
			} {
				if got := runSharded(t, cfg, m.shards, m.parallel); !bytes.Equal(plain, got) {
					t.Errorf("%v/%s: %s output differs from the plain run:\n%s\nvs\n%s",
						strategy, algo, m.name, got, plain)
				}
			}
		}
	}
}

// TestDCStrategiesRun smoke-tests every supported strategy × fabric family
// and sanity-checks the scale model: traffic lands on the NIC class and the
// iteration takes positive time.
func TestDCStrategiesRun(t *testing.T) {
	for _, strategy := range []Strategy{DDP, ZeRO1, ZeRO2, ZeRO3} {
		for _, topo := range []string{"fat-tree:nodes=8", "rail-only:nodes=8", "dragonfly:nodes=8"} {
			cfg := dcBase(strategy)
			cfg.Topo = topo
			cfg.Nodes = 0 // adopt the spec's node count
			cfg.Shards = 2
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v on %s: %v", strategy, topo, err)
			}
			if res.IterTime <= 0 || res.AttainedTFLOPs <= 0 {
				t.Errorf("%v on %s: iter=%v tflops=%v", strategy, topo, res.IterTime, res.AttainedTFLOPs)
			}
			if res.Stats[fabric.RoCE].Avg <= 0 {
				t.Errorf("%v on %s: no NIC traffic measured", strategy, topo)
			}
			if !strings.Contains(res.Config.Name(), "@") {
				t.Errorf("%v on %s: Name %q lacks the fabric suffix", strategy, topo, res.Config.Name())
			}
		}
	}
}

// TestDCValidate pins the datacenter configuration surface: spec/algo
// errors, node-count conflicts, unsupported testbed machinery, and the
// cache key distinguishing topo/algo.
func TestDCValidate(t *testing.T) {
	ok := dcBase(DDP)
	if err := ok.Validate(); err != nil {
		t.Fatalf("base DC config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad spec", func(c *Config) { c.Topo = "mesh:nodes=4" }},
		{"bad algo", func(c *Config) { c.Algo = "bisect" }},
		{"node conflict", func(c *Config) { c.Nodes = 4 }},
		{"megatron", func(c *Config) { c.Strategy = Megatron }},
		{"offload", func(c *Config) { c.Strategy = ZeRO3; c.Offload = memory.CPUOffload }},
		{"checkpoint", func(c *Config) { c.CheckpointEvery = 1 }},
		{"trace", func(c *Config) { c.Trace = true }},
		{"purpose-built", func(c *Config) { c.PurposeBuilt = true }},
		{"roce override", func(c *Config) { c.RoCEBW = 1e9 }},
		{"rewrite", func(c *Config) { c.Rewrite = RewriteSerializeComm }},
		{"algo on testbed", func(c *Config) { c.Topo = ""; c.Nodes = 1; c.Algo = "flat" }},
	}
	for _, tc := range cases {
		cfg := dcBase(DDP)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	// Cache keys: canonical topo spelling shares an entry; algo and topo
	// distinguish entries.
	a, okA := dcBase(DDP).cacheKey()
	canon := dcBase(DDP)
	canon.Topo = "rail:nodes=8,pod=1"
	b, okB := canon.cacheKey()
	if !okA || !okB || a != b {
		t.Errorf("canonicalized topo specs should share a cache key:\n%s\n%s", a, b)
	}
	alt := dcBase(DDP)
	alt.Algo = "multiring"
	c, _ := alt.cacheKey()
	if c == a {
		t.Error("cache key ignores Algo")
	}
	ft := dcBase(DDP)
	ft.Topo = "fat-tree:nodes=8,pod=1"
	d, _ := ft.cacheKey()
	if d == a {
		t.Error("cache key ignores Topo")
	}
}
