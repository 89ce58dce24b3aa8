package train

import (
	"fmt"

	"llmbw/internal/collective"
	"llmbw/internal/scenario"
	"llmbw/internal/topology"
)

// The experiment suite replays many identical training configurations — the
// same maximum-size run feeds Fig 6, Fig 7, Fig 8, Table IV and Table V — and
// the simulator is deterministic, so a repeated Run is pure waste. RunCached
// memoizes Run results keyed by a canonical rendering of the configuration.
// Entries are computed at most once even when parallel experiment workers
// request the same configuration concurrently (the cache's singleflight), and
// the tier is bounded: beyond the entry cap the least-recently-used results
// are evicted. Eviction only drops the cache's reference — a *Result already
// returned to a caller stays valid (results are immutable by contract), and a
// later identical request simply recomputes.
//
// DefaultRunCacheCap bounds the resident results. A Result for a dc-scale
// topology is dominated by its Summary and per-window telemetry — small
// relative to the simulation that produced it — so the default is sized for
// the largest sweeps in the experiment suite rather than for memory pressure.
const DefaultRunCacheCap = 512

var runCache = scenario.New("train.results", DefaultRunCacheCap)

// ScenarioKey returns the canonical interned scenario key for the
// configuration, or ok=false when the configuration cannot be keyed (a
// FaultInjection hook is opaque: two configs with different hooks would
// collide; an unparsable Topo/Algo cannot be canonicalized). The key is the
// identity used by the result cache and by cmd/servesim's request coalescing.
func (c Config) ScenarioKey() (string, bool) {
	if c.FaultInjection != nil {
		return "", false
	}
	c = c.withDefaults()
	placement := "-"
	if c.Placement != nil {
		placement = fmt.Sprintf("%s|%v|%v|%v",
			c.Placement.Name, c.Placement.Drives, c.Placement.Volumes, c.Placement.RankVol)
	}
	// Topo and Algo are keyed canonically, so "ft:nodes=64" and
	// "fat-tree:nodes=64" (or "hier" and "2level") share an entry.
	topo, algo := "-", "-"
	if c.IsDC() {
		dc, err := topology.ParseTopoSpec(c.Topo)
		if err != nil {
			return "", false
		}
		topo = dc.Spec()
		a, err := collective.ParseAlgo(c.Algo)
		if err != nil {
			return "", false
		}
		algo = a.String()
	}
	return scenario.Intern(fmt.Sprintf("s%d o%d n%d m%+v tp%d pp%d b%d P{%s} i%d w%d ck%d tr%t win%d pb%t roce%g xbar%g rw%d sh%d topo{%s} algo{%s}",
		c.Strategy, c.Offload, c.Nodes, c.Model, c.TensorParallel, c.PipelineParallel,
		c.BatchPerGPU, placement, c.Iterations, c.Warmup, c.CheckpointEvery,
		c.Trace, int64(c.Window), c.PurposeBuilt, c.RoCEBW, c.XbarBW, c.Rewrite, c.Shards, topo, algo)), true
}

// cacheKey is the historical internal name for ScenarioKey.
func (c Config) cacheKey() (string, bool) { return c.ScenarioKey() }

// RunCached executes the configuration, reusing the Result of an identical
// earlier run in this process. Results are deterministic functions of the
// configuration and are treated as immutable by all consumers, so sharing
// one *Result across experiments is safe. Configurations with fault
// injection hooks fall through to a plain Run.
func RunCached(cfg Config) (*Result, error) {
	key, ok := cfg.ScenarioKey()
	if !ok {
		return Run(cfg)
	}
	v, err := runCache.Do(key, 0, func() (any, error) {
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

// RunCacheStats snapshots the result tier's counters for stats probes.
func RunCacheStats() scenario.Stats { return runCache.Stats() }

// SetRunCacheCap rebounds the result tier (entries beyond the new cap are
// evicted immediately, least-recently-used first); cap <= 0 removes the
// bound. cmd/servesim exposes this as -cache.
func SetRunCacheCap(capacity int) { runCache.SetCap(capacity) }

// ResetRunCache drops all memoized results. Tests use it to force fresh
// simulations when comparing independent executions.
func ResetRunCache() { runCache.Reset() }
