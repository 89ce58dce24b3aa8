package serve

import "llmbw/internal/scenario"

// The serving result tier mirrors train.results: a Result is a deterministic
// pure function of its Config and is treated as immutable by every consumer,
// so identical what-if sweep points and repeated POST /serve requests share
// one simulation.

// DefaultRunCacheCap bounds the serve result tier. Serving sweeps are
// smaller than training matrices; 256 covers the full what-if studies.
const DefaultRunCacheCap = 256

var runCache = scenario.New("serve.results", DefaultRunCacheCap)

// RunCached executes the scenario, reusing the Result of an identical
// earlier run in this process.
func RunCached(cfg Config) (*Result, error) {
	v, err := runCache.Do(cfg.withDefaults().ScenarioKey(), func() (any, error) {
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// RunCacheStats snapshots the serve result tier's counters for stats probes.
func RunCacheStats() scenario.Stats { return runCache.Stats() }

// SetRunCacheCap rebounds the serve result tier; cap <= 0 removes the bound.
func SetRunCacheCap(capacity int) { runCache.SetCap(capacity) }

// ResetRunCache drops all memoized serving results.
func ResetRunCache() { runCache.Reset() }
