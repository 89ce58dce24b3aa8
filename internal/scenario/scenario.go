// Package scenario is the warm-artifact layer behind the long-lived
// simulation service: a family of size-bounded, singleflight LRU caches
// keyed by canonical scenario keys and holding the expensive intermediate
// artifacts a simulation run compiles — memoized run results, compiled
// schedule-IR programs and datacenter topology blueprints. The experiment
// suite and cmd/servesim are sweep workloads: hundreds of near-identical
// configurations differing in one knob. Artifacts that depend only on a
// shared prefix of the configuration (the topology spec, the strategy/model
// pair) are computed once and replayed from here, so a warm request skips
// straight to the parts of the work its configuration actually changes.
//
// A key is rendered from every configuration field the artifact depends on,
// so an artifact is a pure function of its key: entries are never
// invalidated, only evicted beyond a tier's cap.
//
// The package is deliberately leaf-level (it imports nothing from the
// simulator), so every layer — train, serve, topology, the CLIs and the
// daemon — can share one cache substrate without import cycles. Values are
// immutable by contract: a cached artifact is shared across concurrent
// consumers and must never be mutated after Do's compute function returns.
package scenario
