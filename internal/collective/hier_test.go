package collective

import (
	"fmt"
	"strings"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// buildDCGroup constructs the cluster plus its collective group over every
// node. A flat group is one fair-share domain, so its shard request clamps
// to one, as train's -shards does.
func buildDCGroup(t *testing.T, spec string, algo Algo, shards int) (*topology.DCShardedCluster, *DCGroup) {
	t.Helper()
	cfg, err := topology.ParseTopoSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Window = sim.Time(1) << 60
	if algo == AlgoFlat {
		shards = 1
	}
	sc, err := topology.NewDCSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc, NewDCGroup(sc, algo)
}

// driveDC runs two iterations of a three-collective round on every node and
// renders per-node completion times plus per-node NIC/NVSwitch telemetry —
// the byte-identity surface for the shard-count A/B tests.
func driveDC(t *testing.T, spec string, algo Algo, shards int, parallel bool) string {
	t.Helper()
	old := sim.Sharded
	sim.Sharded = parallel
	defer func() { sim.Sharded = old }()

	sc, grp := buildDCGroup(t, spec, algo, shards)
	rounds := []struct {
		op      Op
		payload float64
	}{
		{AllReduce, 1e9},
		{Broadcast, 4e8},
		{ReduceScatter, 6e8},
	}
	for _, r := range rounds {
		grp.Precompile(r.op, r.payload)
	}
	// Each node's driver is a callback chain on its home shard: log the
	// round that just completed, then start the next one.
	nodes := sc.Nodes()
	logs := make([]strings.Builder, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		eng := sc.EngineOf(n)
		done := 0
		var next func()
		next = func() {
			if done > 0 {
				fmt.Fprintf(&logs[n], "%v@%d;", rounds[(done-1)%len(rounds)].op, eng.Now())
			}
			if done == 2*len(rounds) {
				return
			}
			r := rounds[done%len(rounds)]
			done++
			grp.StartNode(r.op, r.payload, n, next)
		}
		eng.Schedule(0, next)
	}
	end := sc.RunSim()
	var sb strings.Builder
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(&sb, "n%d %s roce=%+v nv=%+v\n", n, logs[n].String(),
			sc.ClassSeries(fabric.RoCE, n, 0, end).Stats(),
			sc.ClassSeries(fabric.NVLink, n, 0, end).Stats())
	}
	return sb.String()
}

// TestHierIdentityAcrossShards pins the tentpole determinism claim: a
// hierarchical collective workload on a rail-only cluster is byte-identical
// at 1/2/4/8 shards, in both serial-merge and parallel-window execution.
// pod=1 makes every node its own partition seam, so all four shard counts
// are realizable.
func TestHierIdentityAcrossShards(t *testing.T) {
	for _, algo := range []Algo{AlgoTwoLevel, AlgoMultiRing} {
		ref := ""
		refKey := ""
		for _, shards := range []int{1, 2, 4, 8} {
			for _, parallel := range []bool{false, true} {
				got := driveDC(t, "rail-only:nodes=8,pod=1", algo, shards, parallel)
				key := fmt.Sprintf("%v shards=%d parallel=%v", algo, shards, parallel)
				if ref == "" {
					ref, refKey = got, key
					continue
				}
				if got != ref {
					t.Errorf("%s differs from %s:\n%s\nvs\n%s", key, refKey, got, ref)
				}
			}
		}
	}
}

// TestHierIdentityOnPodFabrics runs the same identity matrix on multi-node
// pods over fat-tree and dragonfly trunks, where cross-pod legs carry extra
// tier latency and pod-owned trunk links.
func TestHierIdentityOnPodFabrics(t *testing.T) {
	for _, spec := range []string{"fat-tree:nodes=8", "dragonfly:nodes=8,rails=2"} {
		ref := ""
		for i, shards := range []int{1, 2} {
			for _, parallel := range []bool{false, true} {
				got := driveDC(t, spec, AlgoTwoLevel, shards, parallel)
				if i == 0 && !parallel {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s shards=%d parallel=%v differs:\n%s\nvs\n%s", spec, shards, parallel, got, ref)
				}
			}
		}
	}
}

// TestFlatShardInvariant: the flat twin must not care what the -shards knob
// says — its one fair-share domain always runs on one shard.
func TestFlatShardInvariant(t *testing.T) {
	ref := driveDC(t, "fat-tree:nodes=8", AlgoFlat, 1, false)
	for _, shards := range []int{2, 8} {
		for _, parallel := range []bool{false, true} {
			if got := driveDC(t, "fat-tree:nodes=8", AlgoFlat, shards, parallel); got != ref {
				t.Errorf("flat shards=%d parallel=%v differs from shards=1", shards, parallel)
			}
		}
	}
}

// TestDCPlanReplayAllocFree pins the compiled-plan contract on the
// datacenter path: once compiled and warmed, replaying a hierarchical
// all-reduce (handoff legs, rendezvous, NVSwitch phases) and the flat twin
// allocates nothing.
func TestDCPlanReplayAllocFree(t *testing.T) {
	for _, tc := range []struct {
		algo   Algo
		shards int
	}{
		{AlgoTwoLevel, 2},
		{AlgoMultiRing, 2},
		{AlgoFlat, 1},
	} {
		sc, grp := buildDCGroup(t, "rail-only:nodes=8,pod=1", tc.algo, tc.shards)
		grp.Precompile(AllReduce, 1e9)
		nodes := sc.Nodes()
		done := func() {}
		starts := make([]func(), nodes)
		for n := 0; n < nodes; n++ {
			n := n
			starts[n] = func() { grp.StartNode(AllReduce, 1e9, n, done) }
		}
		iterate := func() {
			for n := 0; n < nodes; n++ {
				sc.EngineOf(n).Schedule(0, starts[n])
			}
			sc.Eng.Run()
		}
		for i := 0; i < 3; i++ {
			iterate()
		}
		if avg := testing.AllocsPerRun(50, iterate); avg != 0 {
			t.Errorf("%v: steady-state replay allocates %v allocs/run, want 0", tc.algo, avg)
		}
		sc.Eng.Close()
	}
}

// TestDCGroupGuards: precompilation is mandatory, mid-round restarts are
// caught, and a flat group refuses a cluster split across shards.
func TestDCGroupGuards(t *testing.T) {
	sc, grp := buildDCGroup(t, "rail-only:nodes=4,pod=1", AlgoTwoLevel, 2)
	defer sc.Eng.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("StartNode without Precompile did not panic")
			}
		}()
		grp.StartNode(AllReduce, 5e8, 0, func() {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("flat group on a 2-shard cluster did not panic")
			}
		}()
		NewDCGroup(sc, AlgoFlat)
	}()
}
