package train

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"llmbw/internal/model"
	"llmbw/internal/topology"
)

// smallCfg builds a cheap distinct configuration per index for churn tests.
func smallCfg(i int) Config {
	return Config{
		Strategy:   DDP,
		Model:      model.NewGPT(2 + i%3),
		Nodes:      1 + i%2,
		Iterations: 1,
		Warmup:     0,
	}
}

// TestRunCacheChurn drives the bounded result tier well past its cap from
// concurrent workers and verifies that eviction never corrupts a *Result a
// caller is still holding: every returned result keeps the Summary of a
// fresh uncached run of the same configuration, even after the entry that
// produced it has been evicted and recomputed many times over.
func TestRunCacheChurn(t *testing.T) {
	ResetRunCache()
	SetRunCacheCap(2) // force heavy eviction across the 6 distinct configs
	defer func() {
		SetRunCacheCap(DefaultRunCacheCap)
		ResetRunCache()
	}()

	// Reference summaries from uncached runs.
	const distinct = 6
	want := make([]Summary, distinct)
	for i := 0; i < distinct; i++ {
		res, err := Run(smallCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Summary()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				i := (w + iter) % distinct
				res, err := RunCached(smallCfg(i))
				if err != nil {
					errs <- err
					return
				}
				// Hold the result across further churn, then check it.
				for j := 0; j < distinct; j++ {
					if _, err := RunCached(smallCfg(j)); err != nil {
						errs <- err
						return
					}
				}
				if got := res.Summary(); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("config %d: held result changed under churn:\ngot  %+v\nwant %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := RunCacheStats()
	if s.Evictions == 0 {
		t.Fatal("no evictions: churn test did not exercise the LRU bound")
	}
	if s.Entries > 2 {
		t.Fatalf("entries = %d; want <= cap 2", s.Entries)
	}
}

// TestRunCacheStatsProbe checks the stats surface RunCached feeds.
func TestRunCacheStatsProbe(t *testing.T) {
	ResetRunCache()
	before := RunCacheStats()
	if _, err := RunCached(smallCfg(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(smallCfg(0)); err != nil {
		t.Fatal(err)
	}
	after := RunCacheStats()
	if after.Name != "train.results" {
		t.Fatalf("tier name = %q; want train.results", after.Name)
	}
	if after.Misses-before.Misses != 1 {
		t.Fatalf("misses delta = %d; want 1 (one simulation for two identical requests)", after.Misses-before.Misses)
	}
	if after.Hits-before.Hits != 1 {
		t.Fatalf("hits delta = %d; want 1", after.Hits-before.Hits)
	}
	ResetRunCache()
}

// TestScenarioKeyStability pins that ScenarioKey is interned (two renders of
// one configuration share one backing string), rejects opaque configs, and
// keeps fabrics that differ only in oversubscription or radix apart.
func TestScenarioKeyStability(t *testing.T) {
	a, ok := smallCfg(0).ScenarioKey()
	if !ok {
		t.Fatal("ScenarioKey rejected a plain config")
	}
	b, _ := smallCfg(0).ScenarioKey()
	if a != b {
		t.Fatal("same config produced different scenario keys")
	}
	faulty := smallCfg(0)
	faulty.FaultInjection = func(*topology.Cluster) {}
	if _, ok := faulty.ScenarioKey(); ok {
		t.Fatal("ScenarioKey accepted an opaque FaultInjection config")
	}
	dc := Config{Strategy: ZeRO3, Model: model.NewGPT(8), Topo: "fat-tree:nodes=16", Iterations: 2, Warmup: 1}
	keys := map[string]string{}
	for _, topo := range []string{"fat-tree:nodes=16", "fat-tree:nodes=16,oversub=32", "fat-tree:nodes=16,radix=32"} {
		cfg := dc
		cfg.Topo = topo
		key, ok := cfg.ScenarioKey()
		if !ok {
			t.Fatalf("ScenarioKey rejected %s", topo)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("%s and %s share a scenario key", prev, topo)
		}
		keys[key] = topo
	}
}
