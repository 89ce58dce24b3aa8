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

// minRoCECapacity returns the smallest RoCE link capacity on a route, which
// sets the attainable stream rate of a crossing hop. It is the reference's
// own copy of the rule compiled plans apply through fabric.PathCap.
func minRoCECapacity(r topology.Route) float64 {
	min := 0.0
	for _, l := range r.Links {
		if l.Class != fabric.RoCE {
			continue
		}
		if min == 0 || l.Capacity() < min {
			min = l.Capacity()
		}
	}
	if min == 0 {
		min = topology.RoCELinkBW
	}
	return min
}

// issueSequenceTimes runs a fixed mix of collective issues — replays, a
// single-ring shape, a rate-limited shape — back to back on a fresh cluster
// and returns each completion time. compiled selects the production issue
// path (StartRings, compiled plans) or the rebuild-per-issue reference; that
// is the only degree of freedom between calls.
func issueSequenceTimes(compiled bool, nodes int) []sim.Time {
	c := topology.New(topology.DefaultConfig(nodes))
	g := NewGroup(c, NodeMajorRanks(nodes, 4))
	seq := []struct {
		op      Op
		payload float64
		limit   float64
		rings   int
	}{
		{AllReduce, 2e9, 0, 2},
		{ReduceScatter, 1e9, 0, 1},
		{AllGather, 1e9, 0, 1},
		{AllReduce, 2e9, 0, 2}, // replay of the first shape
		{AllReduce, 2e9, 5e9, 2},
		{ReduceScatter, 1e9, 0, 1}, // replay
	}
	start := g.referenceStartRings
	if compiled {
		start = g.StartRings
	}
	// A callback chain issues each shape when the previous one completes.
	var times []sim.Time
	var issue func()
	issue = func() {
		s := seq[len(times)]
		start(s.op, s.payload, s.limit, s.rings, func() {
			times = append(times, c.Eng.Now())
			if len(times) < len(seq) {
				issue()
			}
		})
	}
	c.Eng.Schedule(0, issue)
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
		start := func(op Op, payload, limit float64, onDone func()) {
			g.StartRings(op, payload, limit, 2, onDone)
		}
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

	// In flight: 10 ms into one issue, a second issue of the shape starts
	// (compiling a second plan) and at that same instant a RoCE link's
	// capacity halves under both. Once both drain, a third issue replays a
	// pooled plan whose caps predate the change. Flows already in flight
	// keep their limits; every issue must complete when the reference's does.
	const changeAt = 10 * sim.Millisecond
	inFlight := func(compiled bool) []sim.Time {
		c := topology.New(topology.DefaultConfig(2))
		g := NewGroup(c, NodeMajorRanks(2, 4))
		start := func(onDone func()) {
			if compiled {
				g.StartRings(AllReduce, 2e9, 0, 2, onDone)
			} else {
				g.referenceStartRings(AllReduce, 2e9, 0, 2, onDone)
			}
		}
		var times []sim.Time
		record := func() { times = append(times, c.Eng.Now()) }
		start(record)
		c.Eng.Schedule(changeAt, func() {
			start(record)
			l := c.LinksOfClass(fabric.RoCE, 0)[0]
			c.Net.SetCapacity(l, l.Capacity()/2)
		})
		c.Eng.Run()
		start(record)
		c.Eng.Run()
		if compiled {
			if compiled, replays := g.PlanStats(); compiled != 2 || replays != 1 {
				t.Errorf("in-flight change: compiled=%d replays=%d, want 2/1", compiled, replays)
			}
		}
		return times
	}
	want, got := inFlight(false), inFlight(true)
	if len(want) != 3 || want[0] <= changeAt {
		t.Fatalf("reference completions %v: want three, the first after the change at %v", want, changeAt)
	}
	if len(got) != len(want) {
		t.Fatalf("plans completed %d issues, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("in-flight change, issue %d: plan finished at %v, reference at %v", i, got[i], want[i])
		}
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
