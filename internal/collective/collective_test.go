package collective

import (
	"math"
	"testing"
	"testing/quick"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

func singleNodeGroup(t *testing.T) (*topology.Cluster, *Group) {
	t.Helper()
	c := topology.New(topology.DefaultConfig(1))
	return c, NewGroup(c, NodeMajorRanks(1, 4))
}

func TestWireBytesFormulas(t *testing.T) {
	v := 1e9
	cases := []struct {
		op   Op
		n    int
		want float64
	}{
		{AllReduce, 4, 1.5e9},
		{AllGather, 4, 0.75e9},
		{ReduceScatter, 8, 0.875e9},
		{Broadcast, 4, 1e9},
		{Reduce, 4, 1e9},
		{AllReduce, 1, 0},
	}
	for _, c := range cases {
		if got := WireBytesPerHop(c.op, c.n, v); math.Abs(got-c.want) > 1 {
			t.Errorf("WireBytes(%v, n=%d) = %v, want %v", c.op, c.n, got, c.want)
		}
	}
}

// The ZeRO communication-volume law: ZeRO-1/2 (reduce-scatter + all-gather)
// move exactly as much as DDP's all-reduce; ZeRO-3 adds an extra parameter
// all-gather for +50%.
func TestZeROVolumeLaw(t *testing.T) {
	v := 2e9
	n := 8
	ddp := WireBytesPerHop(AllReduce, n, v)
	z12 := WireBytesPerHop(ReduceScatter, n, v) + WireBytesPerHop(AllGather, n, v)
	if math.Abs(ddp-z12) > 1 {
		t.Errorf("ZeRO-1/2 volume %v != DDP %v", z12, ddp)
	}
	z3 := z12 + WireBytesPerHop(AllGather, n, v)
	if ratio := z3 / ddp; math.Abs(ratio-1.5) > 1e-9 {
		t.Errorf("ZeRO-3/DDP volume ratio = %v, want 1.5", ratio)
	}
}

func TestStepsCount(t *testing.T) {
	if Steps(AllReduce, 4) != 6 || Steps(AllGather, 4) != 3 || Steps(Reduce, 1) != 0 {
		t.Error("step counts wrong")
	}
}

func TestUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown op did not panic")
		}
	}()
	WireBytesPerHop(Op(42), 4, 1)
}

func TestSingleNodeAllReduceTiming(t *testing.T) {
	c, g := singleNodeGroup(t)
	var doneAt sim.Time
	// 2 GB payload, n=4: each hop carries 3 GB over a 200 GB/s NVLink pair.
	// All four hops run on distinct pair links -> 15 ms + step latency.
	g.Start(AllReduce, 2e9, func() { doneAt = c.Eng.Now() })
	c.Eng.Run()
	want := 0.015 + float64(Steps(AllReduce, 4))*topology.LatNCCLStep.ToSeconds()
	if math.Abs(doneAt.ToSeconds()-want) > 1e-4 {
		t.Errorf("all-reduce took %v, want ~%.4fs", doneAt, want)
	}
}

func TestRingUsesDistinctNVLinkPairs(t *testing.T) {
	c2, g2 := singleNodeGroup(t)
	g2.Start(AllReduce, 2e9, func() {})
	c2.Eng.Run()
	c2.Net.Quiesce()
	// Ring 0-1-2-3-0 uses pairs (0,1),(1,2),(2,3),(0,3); pairs (0,2),(1,3) idle.
	idle := []*fabric.Link{
		c2.NVLinkPair(topology.GPU{Node: 0, Index: 0}, topology.GPU{Node: 0, Index: 2}),
		c2.NVLinkPair(topology.GPU{Node: 0, Index: 1}, topology.GPU{Node: 0, Index: 3}),
	}
	for _, l := range idle {
		if l.Counter().Total() != 0 {
			t.Errorf("non-ring link %s saw traffic", l.Name)
		}
	}
	busy := c2.NVLinkPair(topology.GPU{Node: 0, Index: 0}, topology.GPU{Node: 0, Index: 1})
	if busy.Counter().Total() == 0 {
		t.Error("ring link saw no traffic")
	}
}

func TestDualNodeRingCrossesRoCEOncePerDirection(t *testing.T) {
	c := topology.New(topology.DefaultConfig(2))
	g := NewGroup(c, NodeMajorRanks(2, 4))
	g.Start(AllReduce, 2e9, func() {})
	c.Eng.Run()
	c.Net.Quiesce()
	// Wire per hop = 2·2GB·7/8 = 3.5 GB. Two hops cross nodes, each using
	// two RoCE links (src + dst side).
	var roceTotal float64
	for _, n := range []int{0, 1} {
		for _, l := range c.LinksOfClass(fabric.RoCE, n) {
			roceTotal += l.Counter().Total()
		}
	}
	want := 2 * 2 * 3.5e9
	if math.Abs(roceTotal-want) > 1e6 {
		t.Errorf("RoCE bytes = %v, want %v", roceTotal, want)
	}
}

func TestDualNodeSlowerThanSingle(t *testing.T) {
	single := topology.New(topology.DefaultConfig(1))
	gs := NewGroup(single, NodeMajorRanks(1, 4))
	var tSingle, tDual sim.Time
	gs.Start(AllReduce, 2e9, func() { tSingle = single.Eng.Now() })
	single.Eng.Run()

	dual := topology.New(topology.DefaultConfig(2))
	gd := NewGroup(dual, NodeMajorRanks(2, 4))
	gd.Start(AllReduce, 2e9, func() { tDual = dual.Eng.Now() })
	dual.Eng.Run()
	if tDual < 3*tSingle {
		t.Errorf("dual-node all-reduce (%v) should be much slower than single (%v)", tDual, tSingle)
	}
}

func TestSingleRankIsNoOp(t *testing.T) {
	c := topology.New(topology.DefaultConfig(1))
	g := NewGroup(c, []topology.GPU{{Node: 0, Index: 0}})
	done := false
	g.Start(AllReduce, 1e9, func() { done = true })
	c.Eng.Run()
	if !done {
		t.Error("single-rank collective never completed")
	}
	if c.Eng.Now() != 0 {
		t.Errorf("single-rank collective took %v", c.Eng.Now())
	}
}

// A driver's continuation runs only once the collective has moved its bytes.
func TestRunBlocksDriverProcess(t *testing.T) {
	c, g := singleNodeGroup(t)
	var at sim.Time
	c.Eng.Schedule(0, func() {
		g.Start(AllGather, 4e9, func() { at = c.Eng.Now() })
	})
	c.Eng.Run()
	if at == 0 {
		t.Error("the driver resumed instantly")
	}
}

func TestEmptyGroupPanics(t *testing.T) {
	c := topology.New(topology.DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("empty group did not panic")
		}
	}()
	NewGroup(c, nil)
}

func TestNodeMajorRanks(t *testing.T) {
	r := NodeMajorRanks(2, 4)
	if len(r) != 8 || r[0] != (topology.GPU{Node: 0, Index: 0}) || r[4] != (topology.GPU{Node: 1, Index: 0}) {
		t.Errorf("ranks = %v", r)
	}
}

func TestOpString(t *testing.T) {
	for _, op := range []Op{AllReduce, AllGather, ReduceScatter, Broadcast, Reduce, Op(9)} {
		if op.String() == "" {
			t.Errorf("op %d renders empty", int(op))
		}
	}
}

// Property: wire bytes per hop are always <= 2×payload and approach the
// asymptote as n grows.
func TestWireBytesBoundsProperty(t *testing.T) {
	f := func(nRaw uint8, vRaw uint32) bool {
		n := int(nRaw%64) + 2
		v := float64(vRaw) + 1
		for _, op := range []Op{AllReduce, AllGather, ReduceScatter, Broadcast, Reduce} {
			w := WireBytesPerHop(op, n, v)
			if w < 0 || w > 2*v+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
