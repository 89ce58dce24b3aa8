package train

import (
	"bytes"
	"testing"

	"llmbw/internal/model"
	"llmbw/internal/sim"
)

// runSharded runs cfg with the given shard request and sharded-execution
// mode, returning the serialized summary (and Chrome trace when cfg.Trace is
// set): the full observable surface that must not depend on -shards.
func runSharded(t *testing.T, cfg Config, shards int, parallel bool) []byte {
	t.Helper()
	defer func(s bool) { sim.Sharded = s }(sim.Sharded)
	sim.Sharded = parallel
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		if err := res.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestShardedMatchesUnsharded pins that testbed output does not depend on
// -shards, across every strategy and offload shape: the testbed is one fluid
// domain and always runs on one plain engine, so runs requesting 2 or 4
// shards, under either sim.Sharded mode, must serialize identically to the
// unrequested run — summary and trace.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, c := range irCases() {
		cfg := c.cfg
		cfg.Trace = true
		plain := runSharded(t, cfg, 0, false)
		for _, m := range []struct {
			name     string
			shards   int
			parallel bool
		}{
			{"shards=2 serial-merge", 2, false},
			{"shards=2 parallel", 2, true},
			{"shards=4 parallel", 4, true},
		} {
			if got := runSharded(t, cfg, m.shards, m.parallel); !bytes.Equal(plain, got) {
				t.Errorf("%s: %s output differs from the plain engine", c.name, m.name)
			}
		}
	}
}

// TestShardedMatchesAcrossFastPaths holds the multi-node ZeRO-3 shape, run
// with no shard request and with 2 and 4 requested (under serial merge and
// parallel windows), to its schedule_shapes.golden section. That section was
// recorded while the sharded engine matched the plain one in every
// combination of the fast paths and the rebuild-per-issue, per-flow-admission
// and imperative-coroutine paths they replaced; those paths are retired, and
// the recording is what remains of them.
func TestShardedMatchesAcrossFastPaths(t *testing.T) {
	cfg := Config{Strategy: ZeRO3, Model: model.NewGPT(8), Iterations: 2, Warmup: 1, Nodes: 2, Trace: true}
	want := goldenShape(t, "zero3-dual")
	for _, m := range []struct {
		name     string
		shards   int
		parallel bool
	}{
		{"plain", 0, false},
		{"shards=2 serial-merge", 2, false},
		{"shards=4 parallel", 4, true},
	} {
		func() {
			defer func(s bool) { sim.Sharded = s }(sim.Sharded)
			sim.Sharded = m.parallel
			cfg.Shards = m.shards
			matchShape(t, "zero3-dual "+m.name, renderShape(t, "zero3-dual", cfg), want)
		}()
	}
}

// TestShardsValidate pins the Config.Shards range check and its presence in
// the run-cache key (two runs differing only in Shards must not collide).
func TestShardsValidate(t *testing.T) {
	cfg := Config{Strategy: DDP, Model: model.NewGPT(8), Shards: MaxShards + 1}
	if err := cfg.Validate(); err == nil {
		t.Error("Shards above MaxShards validated")
	}
	cfg.Shards = MaxShards
	if err := cfg.Validate(); err != nil {
		t.Errorf("Shards = MaxShards rejected: %v", err)
	}
	a, _ := Config{Strategy: DDP, Model: model.NewGPT(8)}.cacheKey()
	b, _ := Config{Strategy: DDP, Model: model.NewGPT(8), Shards: 2}.cacheKey()
	if a == b {
		t.Error("cache key ignores Shards")
	}
}
