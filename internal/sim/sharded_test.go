package sim

import (
	"fmt"
	"testing"
)

// setSharded flips the execution-mode toggle for one test and restores it.
func setSharded(t *testing.T, v bool) {
	t.Helper()
	old := Sharded
	Sharded = v
	t.Cleanup(func() { Sharded = old })
}

// shardedNode is one partition of the determinism workload: it owns a
// deterministic rng, a log, and only ever mutates its own state, mirroring
// how real model code owns its partition's links and flows.
type shardedNode struct {
	se    *ShardedEngine
	peers []*shardedNode
	id    int
	rng   uint64
	log   []string
}

const nodeLookahead = Time(100)

func (nd *shardedNode) event(k int) {
	sh := nd.se.Shard(nd.id)
	nd.log = append(nd.log, fmt.Sprintf("%d/%d/%d", sh.Now(), nd.id, k))
	if k <= 0 {
		return
	}
	nd.rng = nd.rng*6364136223846793005 + 1442695040888963407
	r := nd.rng >> 33
	sh.Schedule(Time(r%53), func() { nd.event(k - 1) })
	if n := len(nd.peers); n > 1 && k%2 == 0 {
		to := nd.peers[(nd.id+1+int(r%uint64(n-1)))%n]
		kk := k - 1
		nd.se.Inject(nd.id, to.id, nodeLookahead+Time(r%91), func() { to.event(kk) })
	}
}

// buildWorkload builds n shards, each seeded with a chain of local events
// that fan out cross-shard injections.
func buildWorkload(n int) []*shardedNode {
	se := NewSharded(n, nodeLookahead)
	nodes := make([]*shardedNode, n)
	for i := range nodes {
		nodes[i] = &shardedNode{se: se, id: i, rng: uint64(i)*2654435761 + 12345}
	}
	for _, nd := range nodes {
		nd.peers = nodes
		k := 20 + nd.id
		nd.se.Shard(nd.id).Schedule(Time(nd.id), func() { nd.event(k) })
	}
	return nodes
}

// TestShardedMatchesSerial is the core byte-identity A/B: the parallel
// windows must hand every shard the exact event sequence the serial merge
// loop produces, at every shard count.
func TestShardedMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		run := func(parallel bool) ([][]string, Time) {
			setSharded(t, parallel)
			nodes := buildWorkload(n)
			se := nodes[0].se
			defer se.Close()
			end := se.Run()
			if p := se.Pending(); p != 0 {
				t.Fatalf("n=%d parallel=%v: %d events left after Run", n, parallel, p)
			}
			logs := make([][]string, n)
			for i, nd := range nodes {
				logs[i] = nd.log
			}
			return logs, end
		}
		serial, serialEnd := run(false)
		parallel, parallelEnd := run(true)
		if serialEnd != parallelEnd {
			t.Errorf("n=%d: final time %v (parallel) != %v (serial)", n, parallelEnd, serialEnd)
		}
		for i := range serial {
			if len(serial[i]) != len(parallel[i]) {
				t.Fatalf("n=%d shard %d: %d events parallel vs %d serial",
					n, i, len(parallel[i]), len(serial[i]))
			}
			for j := range serial[i] {
				if serial[i][j] != parallel[i][j] {
					t.Fatalf("n=%d shard %d event %d: parallel %q != serial %q",
						n, i, j, parallel[i][j], serial[i][j])
				}
			}
		}
	}
}

// TestShardedRunUntilMatchesSerial drives the same workload through sliced
// RunUntil calls and checks the Engine.RunUntil clock-jump contract holds
// identically in both modes.
func TestShardedRunUntilMatchesSerial(t *testing.T) {
	run := func(parallel bool) []Time {
		setSharded(t, parallel)
		nodes := buildWorkload(3)
		se := nodes[0].se
		defer se.Close()
		var marks []Time
		for dl := Time(200); se.Pending() > 0; dl += 200 {
			marks = append(marks, se.RunUntil(dl))
		}
		return marks
	}
	serial := run(false)
	parallel := run(true)
	if len(serial) != len(parallel) {
		t.Fatalf("slice counts differ: %d parallel vs %d serial", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("slice %d: RunUntil returned %v parallel vs %v serial", i, parallel[i], serial[i])
		}
	}
	// While work remains beyond the deadline the clock must land on it...
	if len(serial) < 2 || serial[0] != 200 {
		t.Errorf("first slice returned %v, want the 200ns deadline", serial[0])
	}
	// ...and the drained final slice must stay at the last event.
	if last := serial[len(serial)-1]; last%200 == 0 {
		t.Errorf("final slice returned the deadline %v, want the last event time", last)
	}
}

// A deadline below the merged clock runs nothing and returns the clock, in
// both modes, as Engine.RunUntil does.
func TestShardedRunUntilBelowClock(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		se := NewSharded(2, 10)
		defer se.Close()
		se.Shard(0).ScheduleAt(5, func() {})
		se.Shard(0).ScheduleAt(10, func() {})
		if end := se.RunUntil(5); end != 5 {
			t.Fatalf("parallel=%v: RunUntil(5) = %v, want 5", parallel, end)
		}
		if end := se.RunUntil(3); end != 5 || se.Now() != 5 {
			t.Errorf("parallel=%v: RunUntil(3) = %v with the clock at %v, want both 5", parallel, end, se.Now())
		}
	}
}

// TestInjectionOrdering pins the merge order of same-timestamp arrivals on
// one shard: local events first (their seq is below the injection band),
// then injections in source-shard-major order — in both execution modes.
func TestInjectionOrdering(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		const L = Time(50)
		se := NewSharded(3, L-10)
		defer se.Close()
		var order []string
		// Shard 2's seed runs before shard 1's (lower timestamp), so its
		// injection is buffered first; the seq band must still deliver
		// shard 1's injection ahead of shard 2's.
		se.Shard(2).Schedule(0, func() {
			se.Inject(2, 0, L, func() { order = append(order, "from2") })
		})
		se.Shard(1).ScheduleAt(1, func() {
			se.Inject(1, 0, L-1, func() { order = append(order, "from1") })
		})
		se.Shard(0).ScheduleAt(L, func() { order = append(order, "local") })
		se.Run()
		want := []string{"local", "from1", "from2"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("parallel=%v: arrival order %v, want %v", parallel, order, want)
		}
	}
}

// TestInjectContractPanics locks in the guard rails: delays below the
// lookahead, a lookahead below 1ns, and bad shard indices all panic rather
// than silently break determinism.
func TestInjectContractPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	se := NewSharded(2, 10)
	mustPanic("inject below lookahead", func() { se.Inject(0, 1, 9, func() {}) })
	mustPanic("inject nil fn", func() { se.Inject(0, 1, 10, nil) })
	mustPanic("inject bad shard", func() { se.Inject(0, 7, 10, func() {}) })
	mustPanic("zero lookahead", func() { NewSharded(2, 0) })
	mustPanic("zero shards", func() { NewSharded(0, 10) })
}

// TestLookaheadAccessors: the engine reports the lookahead it was built
// with, the bound NewHandoff checks its wire latency against.
func TestLookaheadAccessors(t *testing.T) {
	for _, la := range []Time{1, 30, Microsecond} {
		if got := NewSharded(2, la).Lookahead(); got != la {
			t.Errorf("NewSharded(2, %v).Lookahead() = %v", la, got)
		}
	}
}

// TestShardedFeedbackCycle pins the horizon's self-cycle term: shard 0
// sends to an idle shard 1, which answers at exactly the lookahead, so the
// answer lands on shard 0 at 2L, ahead of shard 0's own event at 2L+1. A
// window that let shard 0 run past next(0)+2L would execute that event
// first and receive the answer in its past.
func TestShardedFeedbackCycle(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		const L = Time(100)
		se := NewSharded(2, L)
		defer se.Close()
		sh0 := se.Shard(0)
		var log []string
		rec := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", name, sh0.Now())) }
		}
		sh0.Schedule(0, func() {
			se.Inject(0, 1, L, func() { se.Inject(1, 0, L, rec("answer")) })
		})
		sh0.ScheduleAt(2*L+1, rec("local"))
		se.Run()
		if got, want := fmt.Sprint(log), "[answer@200 local@201]"; got != want {
			t.Errorf("parallel=%v: shard 0 ran %s, want %s", parallel, got, want)
		}
	}
}

// TestShardedProcs runs callback machines on two shards with a cross-shard
// hand-off, in both modes: a polling machine on shard 1 is released by an
// injection from a machine on shard 0. The release lands at t=1500
// together with the gate's own wakeup; the local wakeup's seq is below the
// injection band, so the gate deterministically sees the flag one poll later.
func TestShardedProcs(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		const L = Time(1000)
		se := NewSharded(2, L)
		defer se.Close()
		released := false // shard-1-owned
		var doneAt Time
		gate := se.Shard(1)
		var poll func()
		poll = func() {
			if !released {
				gate.Schedule(10, poll)
				return
			}
			doneAt = gate.Now()
		}
		gate.Schedule(0, poll)
		producer := se.Shard(0)
		producer.Schedule(0, func() {
			producer.Schedule(500, func() {
				se.Inject(0, 1, L, func() { released = true })
			})
		})
		se.Run()
		if doneAt != 1510 {
			t.Errorf("parallel=%v: gate released at %v, want 1510ns", parallel, doneAt)
		}
	}
}

// TestShardedStop checks Stop ends a run early in both modes and that a
// subsequent Run resumes the remaining events. The lookahead bounds the
// first window below shard 1's event so neither mode runs it eagerly.
func TestShardedStop(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		setSharded(t, parallel)
		se := NewSharded(2, 100)
		defer se.Close()
		ran0, ran1 := false, false
		se.Shard(0).Schedule(10, func() { ran0 = true; se.Stop() })
		se.Shard(1).Schedule(10_000, func() { ran1 = true })
		se.Run()
		if !ran0 || ran1 || se.Pending() != 1 {
			t.Fatalf("parallel=%v: Stop did not end the run early (ran0=%v ran1=%v pending=%d)",
				parallel, ran0, ran1, se.Pending())
		}
		se.Run()
		if !ran1 || se.Pending() != 0 {
			t.Fatalf("parallel=%v: resume after Stop left ran1=%v, %d pending",
				parallel, ran1, se.Pending())
		}
	}
}

// TestShardedCloseIdempotent: Close twice, then run again (workers must
// relaunch lazily), then close again.
func TestShardedCloseIdempotent(t *testing.T) {
	setSharded(t, true)
	se := NewSharded(2, 10)
	se.Shard(0).Schedule(0, func() { se.Inject(0, 1, 10, func() {}) })
	se.Run()
	se.Close()
	se.Close()
	se.Shard(0).Schedule(5, func() { se.Inject(0, 1, 10, func() {}) })
	if end := se.Run(); end != se.Shard(1).Now() {
		t.Errorf("run after Close ended at %v, want shard 1 clock %v", end, se.Shard(1).Now())
	}
	se.Close()
}

// TestShardedSteadyStateAllocs pins the parallel path's steady state to zero
// allocations per synchronization round: pre-bound ping-pong closures
// crossing shards every window, driven through sliced RunUntil calls.
func TestShardedSteadyStateAllocs(t *testing.T) {
	setSharded(t, true)
	const L = Time(1000)
	se := NewSharded(2, L)
	defer se.Close()
	var ping, pong func()
	ping = func() { se.Inject(0, 1, L, pong) }
	pong = func() { se.Inject(1, 0, L, ping) }
	se.Shard(0).Schedule(0, ping)
	se.RunUntil(64 * L) // warm the heaps, outboxes and workers
	deadline := se.Now()
	allocs := testing.AllocsPerRun(50, func() {
		deadline += 16 * L
		se.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Errorf("steady-state sharded round allocates %.1f times per RunUntil slice, want 0", allocs)
	}
}
