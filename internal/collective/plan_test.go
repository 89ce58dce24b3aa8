package collective

import (
	"fmt"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// referenceStartRings is the rebuild-per-issue ring collective: flows,
// stream caps and completion closures are constructed from scratch on every
// issue, with one StartFlow per leg. It is the reference compiled plans are
// determinism-tested against.
func (g *Group) referenceStartRings(op Op, payload, hopRateLimit float64, rings int, onDone func()) {
	n := len(g.ranks)
	eng := g.cluster.Eng
	wire := WireBytesPerHop(op, n, payload)
	latency := sim.Time(Steps(op, n)) * topology.LatNCCLStep
	type leg struct {
		route topology.Route
		bytes float64
		cross bool
	}
	var legs []leg
	for i := range g.hops {
		if rings == 2 {
			legs = append(legs,
				leg{g.hops[i], wire / 2, g.crosses[i]},
				leg{g.rhops[i], wire / 2, g.crosses[i]})
		} else {
			legs = append(legs, leg{g.hops[i], wire, g.crosses[i]})
		}
	}
	frac := streamFraction(g.cluster, rings)
	remaining := len(legs)
	for i, l := range legs {
		f := l.route.Flow(fmt.Sprintf("%s/hop%d", op, i), l.bytes)
		f.RateLimit = hopRateLimit
		if l.cross {
			crossCap := frac * minRoCECapacity(l.route)
			if f.RateLimit == 0 || f.RateLimit > crossCap {
				f.RateLimit = crossCap
			}
		}
		g.cluster.Net.StartFlow(f, func() {
			remaining--
			if remaining == 0 {
				eng.Schedule(latency, onDone)
			}
		})
	}
}

// referenceStartTree is the rebuild-per-issue tree all-reduce, the
// reference for compiled tree plans.
func (g *Group) referenceStartTree(payload float64, onDone func()) {
	n := len(g.ranks)
	eng := g.cluster.Eng
	latency := sim.Time(TreeSteps(n)) * topology.LatNCCLStep
	edges := treeEdges(n)
	remaining := len(edges)
	for i, e := range edges {
		a, b := g.ranks[e[0]], g.ranks[e[1]]
		var route topology.Route
		cross := a.Node != b.Node
		if cross {
			route = g.cluster.GPUToRemoteGPU(a, b)
		} else {
			route = g.cluster.GPUToGPU(a, b)
		}
		f := route.Flow(fmt.Sprintf("tree-allreduce/edge%d", i), 2*payload)
		if cross {
			cap := FusedStreamFraction * minRoCECapacity(route)
			if eff := g.cluster.Cfg.StreamEff; eff > 0 {
				cap = eff * minRoCECapacity(route)
			}
			f.RateLimit = cap
		}
		g.cluster.Net.StartFlow(f, func() {
			remaining--
			if remaining == 0 {
				eng.Schedule(latency, onDone)
			}
		})
	}
}

// issueSequenceTimes runs a fixed mix of collective issues — replays, a
// single-ring shape, a rate-limited shape, tree all-reduces — back to back on
// a fresh cluster and returns each completion time. compiled selects the
// production issue path (StartRings/StartTree, compiled plans) or the
// rebuild-per-issue reference; that is the only degree of freedom between
// calls.
func issueSequenceTimes(compiled bool, nodes int) []sim.Time {
	c := topology.New(topology.DefaultConfig(nodes))
	g := NewGroup(c, NodeMajorRanks(nodes, 4))
	seq := []struct {
		op      Op
		payload float64
		limit   float64
		rings   int // 0 issues a tree all-reduce
	}{
		{AllReduce, 2e9, 0, 2},
		{ReduceScatter, 1e9, 0, 1},
		{AllGather, 1e9, 0, 1},
		{AllReduce, 2e9, 0, 2}, // replay of the first shape
		{AllReduce, 2e9, 5e9, 2},
		{ReduceScatter, 1e9, 0, 1}, // replay
		{AllReduce, 5e8, 0, 0},
		{AllReduce, 5e8, 0, 0}, // tree replay
	}
	start := func(op Op, payload, limit float64, rings int, done func()) {
		switch {
		case rings == 0 && compiled:
			g.StartTree(payload, done)
		case rings == 0:
			g.referenceStartTree(payload, done)
		case compiled:
			g.StartRings(op, payload, limit, rings, done)
		default:
			g.referenceStartRings(op, payload, limit, rings, done)
		}
	}
	var times []sim.Time
	c.Eng.Go("driver", func(p *sim.Proc) {
		for _, s := range seq {
			s := s
			p.Await(func(resume func()) { start(s.op, s.payload, s.limit, s.rings, resume) })
			times = append(times, p.Now())
		}
	})
	c.Eng.Run()
	return times
}

// TestPlanMatchesDirectIssue is the collective-level determinism A/B: a
// replayed plan must complete at exactly the virtual time the rebuild-per-
// issue reference produces, on single- and dual-node clusters.
func TestPlanMatchesDirectIssue(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		direct := issueSequenceTimes(false, nodes)
		planned := issueSequenceTimes(true, nodes)
		if len(direct) != len(planned) {
			t.Fatalf("nodes=%d: issue counts differ: %d vs %d", nodes, len(direct), len(planned))
		}
		for i := range direct {
			if direct[i] != planned[i] {
				t.Errorf("nodes=%d issue %d: direct at %v, planned at %v",
					nodes, i, direct[i], planned[i])
			}
		}
	}
}

// TestPlanStatsReuse pins the pooling behaviour: sequential issues of one
// shape compile exactly one plan and replay it thereafter; a new shape
// compiles its own.
func TestPlanStatsReuse(t *testing.T) {
	c, g := singleNodeGroup(t)
	for i := 0; i < 5; i++ {
		g.Start(AllReduce, 1e9, func() {})
		c.Eng.Run()
	}
	if compiled, replays := g.PlanStats(); compiled != 1 || replays != 4 {
		t.Errorf("after 5 same-shape issues: compiled=%d replays=%d, want 1/4", compiled, replays)
	}
	g.Start(AllReduce, 2e9, func() {})
	c.Eng.Run()
	if compiled, replays := g.PlanStats(); compiled != 2 || replays != 4 {
		t.Errorf("after a new shape: compiled=%d replays=%d, want 2/4", compiled, replays)
	}
}

// TestConcurrentSameShapeIssues: two overlapping issues of the same shape
// (ZeRO-3's parameter prefetch pattern) must each hold a private plan — the
// second may not reset the first's in-flight byte counters.
func TestConcurrentSameShapeIssues(t *testing.T) {
	c, g := singleNodeGroup(t)
	var firstAt, secondAt sim.Time
	g.Start(AllReduce, 2e9, func() { firstAt = c.Eng.Now() })
	g.Start(AllReduce, 2e9, func() { secondAt = c.Eng.Now() })
	c.Eng.Run()
	if firstAt == 0 || secondAt == 0 {
		t.Fatalf("overlapping issues did not both complete: %v, %v", firstAt, secondAt)
	}
	if compiled, _ := g.PlanStats(); compiled != 2 {
		t.Errorf("overlapping same-shape issues compiled %d plans, want 2", compiled)
	}
	// Both plans are now pooled; a third issue replays instead of compiling.
	g.Start(AllReduce, 2e9, func() {})
	c.Eng.Run()
	if compiled, replays := g.PlanStats(); compiled != 2 || replays != 1 {
		t.Errorf("post-drain issue: compiled=%d replays=%d, want 2/1", compiled, replays)
	}
}

// TestPlanRefreshesCapsOnCapacityChange: a pooled plan caches cross-node
// stream caps derived from RoCE link capacities; after SetCapacity the next
// replay must recompute them exactly as a fresh issue would.
func TestPlanRefreshesCapsOnCapacityChange(t *testing.T) {
	run := func(compiled bool) sim.Time {
		c := topology.New(topology.DefaultConfig(2))
		g := NewGroup(c, NodeMajorRanks(2, 4))
		start := g.StartLimited
		if !compiled {
			start = func(op Op, payload, limit float64, onDone func()) {
				g.referenceStartRings(op, payload, limit, 2, onDone)
			}
		}
		start(AllReduce, 2e9, 0, func() {})
		c.Eng.Run()
		l := c.LinksOfClass(fabric.RoCE, 0)[0]
		c.Net.SetCapacity(l, l.Capacity()/2)
		var doneAt sim.Time
		start(AllReduce, 2e9, 0, func() { doneAt = c.Eng.Now() })
		c.Eng.Run()
		return doneAt
	}
	first := run(false)
	direct := run(false)
	planned := run(true)
	if first != direct {
		t.Fatalf("reference path not deterministic: %v vs %v", first, direct)
	}
	if planned != direct {
		t.Errorf("replay after SetCapacity finished at %v, reference at %v", planned, direct)
	}
}

// TestPlanReplaySteadyStateZeroAlloc pins the tentpole allocation contract:
// once a shape's plan is compiled and the fabric warmed, issuing it again
// allocates nothing — single-node and dual-node (cross-leg caps in play).
func TestPlanReplaySteadyStateZeroAlloc(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		cfg := topology.DefaultConfig(nodes)
		cfg.Window = sim.Time(1) << 60 // keep telemetry buckets from growing
		c := topology.New(cfg)
		g := NewGroup(c, NodeMajorRanks(nodes, 4))
		done := func() {}
		iterate := func() {
			g.Start(AllReduce, 1e9, done)
			c.Eng.Run()
		}
		for i := 0; i < 3; i++ {
			iterate() // compile the plan, warm pools and slice capacities
		}
		if avg := testing.AllocsPerRun(50, iterate); avg != 0 {
			t.Errorf("nodes=%d: steady-state plan replay allocates %v allocs/run, want 0", nodes, avg)
		}
		if compiled, replays := g.PlanStats(); compiled != 1 || replays < 50 {
			t.Errorf("nodes=%d: compiled=%d replays=%d, want one plan replayed throughout", nodes, compiled, replays)
		}
	}
}

// TestHandlePoolReuse: a released handle is handed back by the next NewHandle
// call with its state reset.
func TestHandlePoolReuse(t *testing.T) {
	c, g := singleNodeGroup(t)
	h := g.StartAsync(AllReduce, 1e9)
	c.Eng.Run()
	if !h.Done() {
		t.Fatal("collective did not complete")
	}
	h.Release()
	h2 := g.NewHandle()
	if h2 != h {
		t.Error("NewHandle did not reuse the released handle")
	}
	if h2.Done() {
		t.Error("recycled handle still marked done")
	}
	fired := false
	h2.Then(func() { fired = true })
	h2.Fire()
	if !fired {
		t.Error("recycled handle dropped its waiter")
	}
}

// TestHandleReleaseDuringFire: releasing a handle from one of its own Fire
// callbacks (the comm-queue auto-release pattern) must defer the recycle
// until the callback sweep finishes.
func TestHandleReleaseDuringFire(t *testing.T) {
	_, g := singleNodeGroup(t)
	h := g.NewHandle()
	order := []string{}
	h.Then(func() { h.Release(); order = append(order, "release") })
	h.Then(func() { order = append(order, "second") })
	h.Fire()
	if len(order) != 2 || order[1] != "second" {
		t.Fatalf("waiters ran as %v; release during Fire must not cut the sweep short", order)
	}
	if got := g.NewHandle(); got != h {
		t.Error("handle released during Fire was not recycled")
	}
}

// TestUnpooledHandleReleaseNoOp: handles from NewPendingHandle have no owner;
// Release must be a safe no-op.
func TestUnpooledHandleReleaseNoOp(t *testing.T) {
	h := NewPendingHandle(sim.New())
	h.Fire()
	h.Release() // must not panic or pool the handle anywhere
	if !h.Done() {
		t.Error("unpooled handle lost its done state on Release")
	}
}
