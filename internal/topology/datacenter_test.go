package topology

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

func TestDCGeneratorShapes(t *testing.T) {
	cases := []struct {
		spec      string
		links     int // total modelled links
		uplinks   int // trunk links (fat-tree up+down, dragonfly globals)
		pods      int
		seamsWant string
	}{
		// 8 nodes: 8 NV + 8×4 NIC = 40 endpoint links.
		{"fat-tree:nodes=8", 40 + 2*2*4, 16, 2, "[4 4]"},        // 2 pods × 4 rails × up+down
		{"rail-only:nodes=8", 40, 0, 2, "[4 4]"},                // no trunks at all
		{"dragonfly:nodes=8", 40 + 2*1, 2, 2, "[4 4]"},          // 2 ordered group pairs
		{"fat-tree:nodes=6,pod=4", 30 + 2*2*4, 16, 2, "[4 2]"},  // short last pod
		{"dragonfly:nodes=12,pod=4", 60 + 3*2, 6, 3, "[4 4 4]"}, // 3 groups, 6 ordered pairs
		{"rail-only:nodes=5,rails=2", 5 + 10, 0, 2, "[4 1]"},    // default pod=4, short last pod
	}
	for _, tc := range cases {
		cfg, err := ParseTopoSpec(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		dc, err := NewDC(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := len(dc.Links()); got != tc.links {
			t.Errorf("%s: %d links, want %d", tc.spec, got, tc.links)
		}
		up := 0
		for _, l := range dc.Links() {
			if l.Class == fabric.Uplink {
				up++
			}
		}
		if up != tc.uplinks {
			t.Errorf("%s: %d trunk links, want %d", tc.spec, up, tc.uplinks)
		}
		if got := cfg.Pods(); got != tc.pods {
			t.Errorf("%s: %d pods, want %d", tc.spec, got, tc.pods)
		}
		if got := fmt.Sprint(cfg.Seams()); got != tc.seamsWant {
			t.Errorf("%s: seams %s, want %s", tc.spec, got, tc.seamsWant)
		}
	}
}

func TestDCLinkNamesGloballyStable(t *testing.T) {
	// The same global node must expose identically named links whether it is
	// built monolithically or as part of a sharded sub-cluster.
	cfg, err := ParseTopoSpec("fat-tree:nodes=8")
	if err != nil {
		t.Fatal(err)
	}
	mono, err := NewDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Build order differs between monolithic and per-shard construction;
	// the contract is the set of (name, capacity) pairs.
	names := func(links []*fabric.Link) string {
		var out []string
		for _, l := range links {
			out = append(out, fmt.Sprintf("%s/%g", l.Name, l.Capacity()))
		}
		sort.Strings(out)
		return strings.Join(out, ";")
	}
	want := names(mono.Links())
	for _, shards := range []int{2} {
		sc, err := NewDCSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		var all []*fabric.Link
		for _, g := range sc.Groups {
			all = append(all, g.Links()...)
		}
		if got := names(all); got != want {
			t.Errorf("shards=%d link names differ:\n%s\nvs monolithic\n%s", shards, got, want)
		}
		sc.Eng.Close()
	}
	if mono.NVFabric(0).Name != "dc0/nv" || mono.NICLink(1, 3).Name != "dc1/nic3" {
		t.Errorf("unexpected endpoint link names %q %q", mono.NVFabric(0).Name, mono.NICLink(1, 3).Name)
	}
}

func TestDCSwitchPorts(t *testing.T) {
	ft, _ := ParseTopoSpec("fat-tree:nodes=64")
	ro, _ := ParseTopoSpec("rail-only:nodes=64")
	df, _ := ParseTopoSpec("dragonfly:nodes=64")
	// 64 nodes × 4 rails = 256 endpoints: fat-tree needs a 2-tier Clos over
	// 256 endpoints (radix 64), rail-only four 1-tier networks of 64 ports.
	if got, want := ft.SwitchPorts(), 256*3; got != want {
		t.Errorf("fat-tree ports = %d, want %d", got, want)
	}
	if got, want := ro.SwitchPorts(), 4*64; got != want {
		t.Errorf("rail-only ports = %d, want %d", got, want)
	}
	if ro.SwitchPorts() >= ft.SwitchPorts() {
		t.Errorf("rail-only (%d ports) should undercut fat-tree (%d)", ro.SwitchPorts(), ft.SwitchPorts())
	}
	if df.SwitchPorts() <= 0 {
		t.Errorf("dragonfly ports = %d", df.SwitchPorts())
	}
}

func TestParseTopoSpecRoundTripAndErrors(t *testing.T) {
	for _, spec := range []string{
		"fat-tree:nodes=64,pod=4,rails=4",
		"rail-only:nodes=16,pod=4,rails=2",
		"dragonfly:nodes=32,pod=8,rails=4",
		"fat-tree:nodes=16,pod=4,rails=4,oversub=2,radix=32",
		"rail-only:nodes=64,pod=4,rails=4,oversub=123456789",
	} {
		cfg, err := ParseTopoSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := cfg.Spec(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		again, err := ParseTopoSpec(cfg.Spec())
		if err != nil || again.Spec() != spec {
			t.Errorf("re-parse %q failed: %v", cfg.Spec(), err)
		}
	}
	// Aliases normalize to the canonical spelling.
	cfg, err := ParseTopoSpec("ft:nodes=8")
	if err != nil || cfg.Kind != FatTree {
		t.Fatalf("alias parse: %v %v", cfg.Kind, err)
	}
	for _, bad := range []string{
		"", "paper", "mesh:nodes=4", "fat-tree", "fat-tree:nodes=0",
		"fat-tree:nodes=4,bogus=2", "fat-tree:nodes", "fat-tree:nodes=x",
		fmt.Sprintf("fat-tree:nodes=%d", MaxDCNodes+1),
		// A pod size past MaxDCNodes can overflow Pods() to 0; a radix below
		// 3 never grows a Clos tier's reach, so SwitchPorts would not return.
		"fat-tree:nodes=8,pod=9223372036854775807",
		fmt.Sprintf("fat-tree:nodes=8,pod=%d", MaxDCNodes+1),
		"fat-tree:nodes=8,radix=2",
		"rail-only:nodes=8,radix=1",
		// Past 2^53 an oversubscription has no exact float64 to render back.
		"fat-tree:nodes=8,oversub=9223372036854775807",
	} {
		if _, err := ParseTopoSpec(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

func TestMakeRailPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		seams  []int
		shards int
		counts string
		first  string
	}{
		{"even", []int{4, 4, 4, 4}, 2, "[8 8]", "[0 8]"},
		{"uneven blocks", []int{4, 4, 1}, 2, "[8 1]", "[0 8]"},
		{"single-node rails", []int{1, 1, 1}, 3, "[1 1 1]", "[0 1 2]"},
		{"shards above block count clamp", []int{4, 2}, 8, "[4 2]", "[0 4]"},
		{"one block never splits", []int{6}, 4, "[6]", "[0]"},
		{"shards below one", []int{3, 3}, 0, "[6]", "[0]"},
	}
	for _, tc := range cases {
		p := MakeRailPartition(tc.seams, tc.shards, LatDCWire)
		if got := fmt.Sprint(p.Counts); got != tc.counts {
			t.Errorf("%s: counts %s, want %s", tc.name, got, tc.counts)
		}
		if got := fmt.Sprint(p.First); got != tc.first {
			t.Errorf("%s: first %s, want %s", tc.name, got, tc.first)
		}
		// Of must be consistent with First/Counts and never split a block.
		node := 0
		for b, sz := range tc.seams {
			owner := p.Of[node]
			for i := 0; i < sz; i++ {
				if p.Of[node] != owner {
					t.Errorf("%s: block %d split across shards", tc.name, b)
				}
				node++
			}
		}
		if p.Lookahead != LatDCWire {
			t.Errorf("%s: lookahead %v", tc.name, p.Lookahead)
		}
	}
	for _, bad := range [][]int{nil, {}, {4, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("seams %v should panic", bad)
				}
			}()
			MakeRailPartition(bad, 2, LatDCWire)
		}()
	}
	// A non-positive (or sub-resolution) lookahead would deadlock the
	// sharded engine's conservative horizon; the constructor must reject it
	// rather than let it reach ShardedEngine.Connect.
	for _, bad := range []sim.Time{0, -sim.Microsecond, sim.Nanosecond / 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lookahead %v should panic", bad)
				}
			}()
			MakeRailPartition([]int{4, 4}, 2, bad)
		}()
	}
}

func TestDCRailPathShardLayoutIndependent(t *testing.T) {
	// The route decomposition (link names, byte-carrying capacity, extra
	// latency) must depend only on the global topology, never on where the
	// shard boundaries fall.
	for _, spec := range []string{"fat-tree:nodes=8", "rail-only:nodes=8", "dragonfly:nodes=8"} {
		cfg, err := ParseTopoSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		render := func(sc *DCShardedCluster) string {
			var sb strings.Builder
			for from := 0; from < cfg.Nodes; from++ {
				for to := 0; to < cfg.Nodes; to++ {
					if from == to {
						continue
					}
					for r := 0; r < cfg.Rails; r++ {
						src, dst, extra := sc.RailPath(from, to, r)
						fmt.Fprintf(&sb, "%d>%d/r%d:", from, to, r)
						for _, l := range src {
							fmt.Fprintf(&sb, " %s", l.Name)
						}
						sb.WriteString(" |")
						for _, l := range dst {
							fmt.Fprintf(&sb, " %s", l.Name)
						}
						fmt.Fprintf(&sb, " +%v\n", extra)
					}
				}
			}
			return sb.String()
		}
		var ref string
		for i, shards := range []int{1, 2} {
			sc, err := NewDCSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			got := render(sc)
			if i == 0 {
				ref = got
			} else if got != ref {
				t.Errorf("%s: routes differ between 1 and %d shards", spec, shards)
			}
			sc.Eng.Close()
		}
	}
}

func TestDCShardedHandoffRoundTrip(t *testing.T) {
	// A byte pushed over a cross-pod route on a sharded fat-tree arrives, and
	// the same-shard pairs use the local handoff mode.
	cfg, err := ParseTopoSpec("fat-tree:nodes=8")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewDCSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ShardOf(0) == sc.ShardOf(7) {
		t.Fatal("nodes 0 and 7 should land on different shards")
	}
	done := 0
	var at sim.Time
	sc.EngineOf(0).Schedule(0, func() {
		src, dst, extra := sc.RailPath(0, 7, 1)
		sc.Handoff(0, 7).SendPlanned("t", 1e9, extra, nil, nil, src, dst, func() {
			done++
			at = sc.EngineOf(7).Now()
		})
	})
	sc.RunSim()
	if done != 1 || at == 0 {
		t.Fatalf("transfer done=%d at=%v", done, at)
	}
}
