package topology

import (
	"fmt"

	"llmbw/internal/scenario"
	"llmbw/internal/sim"
)

// DCBlueprint is the engine-free prebuild of a (possibly sharded) datacenter
// cluster: the defaulted configuration, the pod-seam partition, the global
// node→pod table, the per-shard sub-configurations and their rendered link
// name tables. Everything in a blueprint is derived purely from the topology
// spec and the shard count — no engines, links or capacity state — so one
// blueprint is shared (read-only) by every cluster instantiated from it, and
// blueprints are cached across runs. What a blueprint removes from each build
// is the partition arithmetic and all the per-link fmt.Sprintf naming, the
// dominant constant of wiring a 1k-node fabric; the links and engines
// themselves are always fresh (live clusters advance their virtual clocks and
// cannot be reused without shifting telemetry windows).
type DCBlueprint struct {
	Cfg DCConfig // defaulted, validated

	part  Partition
	podOf []int
	subs  []DCConfig
	names []*dcNames
}

// dcBlueprints is the topology tier of the warm-artifact store. Blueprints
// are pure functions of (spec, shards) and independent of any capacity
// state, so entries carry epoch 0.
var dcBlueprints = scenario.New("topology.blueprints", 64)

// DCBlueprintFor fetches (building on first use) the blueprint for a fabric
// configuration and shard request through the blueprint cache. colocated
// requests a single shard, whatever shards says; otherwise the request is
// clamped to [1, pod count] by the partition.
func DCBlueprintFor(cfg DCConfig, shards int, colocated bool) (*DCBlueprint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	if shards < 1 || colocated {
		shards = 1
	}
	key := scenario.Intern(fmt.Sprintf("bp|%+v|sh%d", cfg, shards))
	v, err := dcBlueprints.Do(key, 0, func() (any, error) {
		return newDCBlueprint(cfg, shards), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*DCBlueprint), nil
}

// newDCBlueprint computes a blueprint from scratch. cfg must be validated and
// defaulted; shards ≥ 1.
func newDCBlueprint(cfg DCConfig, shards int) *DCBlueprint {
	bp := &DCBlueprint{Cfg: cfg, podOf: dcPodOf(cfg)}
	bp.part = MakeRailPartition(cfg.Seams(), shards, LatDCWire)
	totalPods := cfg.Pods()
	for s := 0; s < bp.part.Shards; s++ {
		sub := cfg
		sub.Nodes = bp.part.Counts[s]
		sub.FirstNode = bp.part.First[s]
		sub.FirstPod = bp.part.First[s] / cfg.PodSize
		sub.TotalPods = totalPods
		bp.subs = append(bp.subs, sub)
		bp.names = append(bp.names, dcNamesFor(sub))
	}
	return bp
}

// Build instantiates a fresh cluster from the blueprint: new engines, links,
// networks and handoffs wired with the blueprint's precomputed partition and
// name tables. Every Build is independent — the blueprint is never written.
func (bp *DCBlueprint) Build() *DCShardedCluster {
	se := sim.NewSharded(bp.part.Shards)
	for i := 0; i < bp.part.Shards; i++ {
		for j := 0; j < bp.part.Shards; j++ {
			if i != j {
				se.Connect(i, j, bp.part.Lookahead)
			}
		}
	}
	sc := &DCShardedCluster{Cfg: bp.Cfg, Part: bp.part, Eng: se, podOf: bp.podOf}
	for s, sub := range bp.subs {
		sc.Groups = append(sc.Groups, buildDCNamed(se.Shard(s), sub, bp.names[s]))
	}
	sc.connectHandoffs()
	return sc
}
