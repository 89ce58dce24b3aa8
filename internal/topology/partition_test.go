package topology

import (
	"fmt"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

// dcSharded builds a pod-seam sharded fabric from a spec.
func dcSharded(t *testing.T, spec string, shards int, window sim.Time) *DCShardedCluster {
	t.Helper()
	cfg, err := ParseTopoSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = window
	sc, err := NewDCSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestShardedClusterLookup(t *testing.T) {
	sc := dcSharded(t, "fat-tree:nodes=5,pod=1", 2, 0) // blocks [0,1,2] and [3,4]
	defer sc.Eng.Close()
	if s := sc.ShardOf(2); s != 0 {
		t.Errorf("ShardOf(2) = %d, want 0", s)
	}
	if s := sc.ShardOf(3); s != 1 {
		t.Errorf("ShardOf(3) = %d, want 1", s)
	}
	g, ln := sc.GroupOf(4)
	if g != sc.Groups[1] || ln != 1 {
		t.Errorf("GroupOf(4) = group %p local %d, want group 1 local 1", g, ln)
	}
	// Global naming means the local accessor on the sub-cluster returns the
	// globally named link.
	if name := g.NICLink(ln, 0).Name; name != "dc4/nic0" {
		t.Errorf("node 4's rail-0 NIC link is %q, want dc4/nic0", name)
	}
	if h := sc.Handoff(0, 4); h.Latency() != LatDCWire {
		t.Errorf("handoff latency %v, want LatDCWire", h.Latency())
	}
	if sc.Handoff(0, 1) != sc.Handoff(1, 2) {
		t.Errorf("same-shard-pair handoffs should be shared")
	}
}

// ringWorkload drives a store-and-forward ring over a partitioned fabric:
// every node streams to its successor over rail 0 — the sender-owned half
// of the RailPath, the wire hop, then the receiver-owned half — resending
// on completion. Per-node byte counts are deliberately asymmetric: a
// same-shard hop lands with a local sequence number while a cross-shard hop
// lands in the injection band, so only tie-free workloads are comparable
// across shard counts (the serial/parallel A/B at one shard count is exact
// regardless).
func ringWorkload(sc *DCShardedCluster, rounds int) *[][]string {
	n := sc.Nodes()
	logs := make([][]string, n)
	for node := 0; node < n; node++ {
		node := node
		next := (node + 1) % n
		h := sc.Handoff(node, next)
		srcPath, dstPath, extra := sc.RailPath(node, next, 0)
		bytes := 1e9 + float64(node)*64e6
		left := rounds
		var send func()
		var done func()
		done = func() {
			logs[node] = append(logs[node], fmt.Sprintf("%v n%d", sc.EngineOf(next).Now(), node))
			if left--; left > 0 {
				// done runs on the receiver's shard, but a send must start
				// on the sender's — so the "ack" travels back across the
				// shard boundary like any other cross-partition event,
				// paying the wire latency.
				sc.Eng.Inject(sc.ShardOf(next), sc.ShardOf(node), sc.Part.Lookahead, send)
			}
		}
		send = func() {
			h.SendPlanned(fmt.Sprintf("ring n%d", node), bytes, extra, nil, nil, srcPath, dstPath, done)
		}
		sc.EngineOf(node).Schedule(0, send)
	}
	return &logs
}

// TestShardedClusterRingIdentical runs the ring on 1, 2 and 4 shards, in
// serial-merge and parallel-window mode each, and requires every run to
// produce identical completion logs and identical per-node NIC telemetry.
func TestShardedClusterRingIdentical(t *testing.T) {
	old := sim.Sharded
	defer func() { sim.Sharded = old }()
	const nodes = 4
	type result struct {
		key   string
		logs  [][]string
		stats string
	}
	var results []result
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			sim.Sharded = parallel
			sc := dcSharded(t, fmt.Sprintf("fat-tree:nodes=%d,pod=1", nodes), shards, sim.Time(1)<<40)
			if sc.Part.Shards != shards {
				t.Fatalf("asked for %d shards, built %d", shards, sc.Part.Shards)
			}
			logs := ringWorkload(sc, 5)
			end := sc.RunSim()
			stats := fmt.Sprintf("end=%v", end)
			for node := 0; node < nodes; node++ {
				g, _ := sc.GroupOf(node)
				st := g.ClassSeries(fabric.RoCE, node, 0, end).Stats()
				stats += fmt.Sprintf(" n%d=%+v", node, st)
			}
			results = append(results, result{
				key:   fmt.Sprintf("shards=%d parallel=%v", shards, parallel),
				logs:  *logs,
				stats: stats,
			})
		}
	}
	ref := results[0]
	for _, r := range results[1:] {
		if fmt.Sprint(r.logs) != fmt.Sprint(ref.logs) {
			t.Errorf("%s completion logs differ from %s:\n%v\nvs\n%v", r.key, ref.key, r.logs, ref.logs)
		}
		if r.stats != ref.stats {
			t.Errorf("%s telemetry differs from %s:\n%s\nvs\n%s", r.key, ref.key, r.stats, ref.stats)
		}
	}
}
