package fabric

import (
	"fmt"
	"testing"

	"llmbw/internal/sim"
)

// handoffRig is a two-partition fixture: one NIC-ish link per side, a
// handoff in each direction, and a completion log per side.
type handoffRig struct {
	se    *sim.ShardedEngine
	nets  [2]*Network
	links [2]*Link
	fwd   *Handoff // 0 -> 1
	rev   *Handoff // 1 -> 0
	logs  [2][]string
}

const handoffLat = 3 * sim.Microsecond

func newHandoffRig(shards int) *handoffRig {
	r := &handoffRig{se: sim.NewSharded(shards)}
	shardOf := func(side int) int {
		if shards > 1 {
			return side
		}
		return 0
	}
	for side := range r.nets {
		eng := r.se.Shard(shardOf(side))
		r.nets[side] = NewNetwork(eng)
		// The huge telemetry window keeps the counter to one bucket so the
		// steady-state allocation pin isn't confused by bucket growth.
		r.links[side] = NewLink(fmt.Sprintf("n%d/nic", side), RoCE, side, 10e9, sim.Time(1)<<40)
	}
	if shards > 1 {
		r.se.Connect(0, 1, handoffLat)
		r.se.Connect(1, 0, handoffLat)
	}
	r.fwd = NewHandoff(r.se, shardOf(0), shardOf(1), handoffLat, r.nets[0], r.nets[1])
	r.rev = NewHandoff(r.se, shardOf(1), shardOf(0), handoffLat, r.nets[1], r.nets[0])
	return r
}

func (r *handoffRig) logDone(side int, name string) func() {
	return func() {
		r.logs[side] = append(r.logs[side],
			fmt.Sprintf("%v %s", r.nets[side].eng.Now(), name))
	}
}

// TestHandoffLocalTiming pins the store-and-forward arithmetic on a plain
// single-shard engine: src drain + wire latency + dst drain.
func TestHandoffLocalTiming(t *testing.T) {
	r := newHandoffRig(1)
	defer r.se.Close()
	const bytes = 10e9 / 2 // half a second per side at 10 GB/s
	r.fwd.SendPlanned("x", bytes, 0, nil, nil, []*Link{r.links[0]}, []*Link{r.links[1]}, r.logDone(1, "x"))
	end := r.se.Run()
	want := sim.Second/2 + handoffLat + sim.Second/2
	if end != want {
		t.Fatalf("transfer completed at %v, want %v", end, want)
	}
	if len(r.logs[1]) != 1 {
		t.Fatalf("completion log %v, want one entry", r.logs[1])
	}
}

// TestHandoffShardedMatchesSerial bounces pipelined ping-pong traffic across
// a two-shard boundary and requires the destination-side completion logs to
// be identical between the serial merge loop and parallel windows.
func TestHandoffShardedMatchesSerial(t *testing.T) {
	run := func(parallel bool) ([2][]string, sim.Time) {
		old := sim.Sharded
		sim.Sharded = parallel
		defer func() { sim.Sharded = old }()
		r := newHandoffRig(2)
		defer r.se.Close()
		// Each completion triggers the next hop back the other way. Two
		// chains keep both shards busy; each chain's hop counter is only
		// ever touched by that chain's strictly ordered callbacks, so the
		// chains may interleave across shards race-free.
		type chain struct {
			remaining int
			bytes     float64
		}
		var bounce func(c *chain, dstSide int, tag string) func()
		bounce = func(c *chain, dstSide int, tag string) func() {
			return func() {
				r.logDone(dstSide, tag)()
				if c.remaining <= 0 {
					return
				}
				c.remaining--
				back, backSide := r.rev, 0
				if dstSide == 0 {
					back, backSide = r.fwd, 1
				}
				back.SendPlanned(tag, c.bytes, 0, nil, nil, []*Link{r.links[dstSide]}, []*Link{r.links[backSide]},
					bounce(c, backSide, tag))
			}
		}
		a := &chain{remaining: 10, bytes: 4e9}
		b := &chain{remaining: 10, bytes: 6e9}
		r.fwd.SendPlanned("a", a.bytes, 0, nil, nil, []*Link{r.links[0]}, []*Link{r.links[1]}, bounce(a, 1, "a"))
		r.fwd.SendPlanned("b", b.bytes, 0, nil, nil, []*Link{r.links[0]}, []*Link{r.links[1]}, bounce(b, 1, "b"))
		end := r.se.Run()
		return r.logs, end
	}
	serialLogs, serialEnd := run(false)
	parallelLogs, parallelEnd := run(true)
	if serialEnd != parallelEnd {
		t.Errorf("final time %v parallel vs %v serial", parallelEnd, serialEnd)
	}
	for side := range serialLogs {
		if fmt.Sprint(parallelLogs[side]) != fmt.Sprint(serialLogs[side]) {
			t.Errorf("side %d logs differ:\nparallel: %v\nserial:   %v",
				side, parallelLogs[side], serialLogs[side])
		}
	}
	if len(serialLogs[0])+len(serialLogs[1]) != 22 {
		t.Errorf("completions = %d+%d, want 22 total", len(serialLogs[0]), len(serialLogs[1]))
	}
}

// TestHandoffCapFencing checks a per-send destination cap revalidates on
// the capacity epoch: after a mid-run SetCapacity the next transfer must run
// at the degraded rate without any explicit cache invalidation. The cap
// reads a link off the flow's path, so only the cap can slow the leg.
func TestHandoffCapFencing(t *testing.T) {
	r := newHandoffRig(1)
	defer r.se.Close()
	capLink := NewLink("n1/cap", RoCE, 1, 10e9, sim.Time(1)<<40)
	dstCap := NewPathCap(r.nets[1], 1, []*Link{capLink})
	var doneAt []sim.Time
	mark := func() { doneAt = append(doneAt, r.se.Now()) }
	send := func() {
		r.fwd.SendPlanned("x", 10e9, 0, nil, dstCap, []*Link{r.links[0]}, []*Link{r.links[1]}, mark)
	}
	eng := r.se.Shard(0)
	eng.Schedule(0, send)
	r.se.Run()
	// Degrade the capped link 4x and send again: the cached cap must be
	// refenced by the epoch bump, making the dst leg 4x slower.
	eng.Schedule(0, func() { r.nets[1].SetCapacity(capLink, 2.5e9) })
	eng.Schedule(0, send)
	r.se.Run()
	if len(doneAt) != 2 {
		t.Fatalf("%d completions, want 2", len(doneAt))
	}
	d1 := doneAt[0]
	d2 := r.se.Now() - doneAt[0]
	wantD1 := sim.Second + handoffLat + sim.Second
	wantD2 := sim.Second + handoffLat + 4*sim.Second
	if d1 != wantD1 || d2 != wantD2 {
		t.Errorf("transfer durations %v then %v, want %v then %v", d1, d2, wantD1, wantD2)
	}
	// A cap over an empty path caps nothing.
	if got := NewPathCap(r.nets[1], 1, nil).Value(); got != 0 {
		t.Errorf("cap over an empty path caps at %v", got)
	}
}

// TestHandoffContractPanics pins the constructor guard rails.
func TestHandoffContractPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	se := sim.NewSharded(2)
	n0 := NewNetwork(se.Shard(0))
	n1 := NewNetwork(se.Shard(1))
	se.Connect(0, 1, 100)
	mustPanic("latency below lookahead", func() { NewHandoff(se, 0, 1, 50, n0, n1) })
	mustPanic("missing edge", func() { NewHandoff(se, 1, 0, 100, n1, n0) })
	mustPanic("negative latency", func() { NewHandoff(se, 0, 0, -1, n0, n0) })
	mustPanic("same-shard handoff across engines", func() { NewHandoff(se, 0, 0, 10, n0, n1) })
}

// TestHandoffSteadyStateAllocs pins the pooled-transfer path: a self-
// sustaining ring of handoffs in parallel mode must allocate nothing per
// steady-state round.
func TestHandoffSteadyStateAllocs(t *testing.T) {
	old := sim.Sharded
	sim.Sharded = true
	defer func() { sim.Sharded = old }()
	r := newHandoffRig(2)
	defer r.se.Close()
	srcPath := []*Link{r.links[0]}
	dstPath := []*Link{r.links[1]}
	revSrc := []*Link{r.links[1]}
	revDst := []*Link{r.links[0]}
	var fwd, rev func()
	fwd = func() { r.fwd.SendPlanned("p", 1e9, 0, nil, nil, srcPath, dstPath, rev) }
	rev = func() { r.rev.SendPlanned("p", 1e9, 0, nil, nil, revSrc, revDst, fwd) }
	r.se.Shard(0).Schedule(0, fwd)
	r.se.RunUntil(2 * sim.Second) // warm pools, heaps, workers
	deadline := r.se.Now()
	allocs := testing.AllocsPerRun(20, func() {
		deadline += sim.Second
		r.se.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Errorf("steady-state handoff round allocates %.1f times per slice, want 0", allocs)
	}
}

// TestHandoffPoolChurnUnderCapEpochBumps exercises the pool with a
// ping-pong stream of planned sends while both sides' capacities are bumped
// mid-collective: per-send PathCaps must re-evaluate against the new
// capacity epoch on their own shard, the transfer records must recycle
// rather than grow the pool, and the steady state — epoch bumps included —
// must allocate nothing.
func TestHandoffPoolChurnUnderCapEpochBumps(t *testing.T) {
	r := newHandoffRig(2)
	defer r.se.Close()
	path0 := []*Link{r.links[0]}
	path1 := []*Link{r.links[1]}
	cap0 := NewPathCap(r.nets[0], 0.5, path0)
	cap1 := NewPathCap(r.nets[1], 0.5, path1)

	count := 0
	budget := 0
	var fwdSend, revSend func()
	fwdSend = func() {
		r.fwd.SendPlanned("ping", 1e8, 0, cap0, cap1, path0, path1, revSend)
	}
	revSend = func() {
		count++
		if count < budget {
			r.rev.SendPlanned("pong", 1e8, 0, cap1, cap0, path1, path0, fwdSend)
		}
	}
	// Capacity bumps from each side's own shard, landing mid-stream. The
	// toggle returns to the original capacity so every iteration of the
	// steady-state alloc probe sees the same fabric.
	var narrow [2]bool
	narrow[0], narrow[1] = true, true
	bump := func(side int) func() {
		return func() {
			if narrow[side] {
				r.nets[side].SetCapacity(r.links[side], 5e9)
			} else {
				r.nets[side].SetCapacity(r.links[side], 10e9)
			}
			narrow[side] = !narrow[side]
		}
	}
	bump0, bump1 := bump(0), bump(1)
	iterate := func() {
		budget = count + 20
		r.se.Shard(0).Schedule(0, fwdSend)
		r.se.Shard(0).Schedule(100*sim.Microsecond, bump0)
		r.se.Shard(1).Schedule(150*sim.Microsecond, bump1)
		r.se.Shard(0).Schedule(300*sim.Microsecond, bump0)
		r.se.Shard(1).Schedule(350*sim.Microsecond, bump1)
		r.se.Run()
	}
	iterate()
	if count != 20 {
		t.Fatalf("completed %d transfers, want 20", count)
	}
	if e := r.nets[0].CapacityEpoch(); e < 2 {
		t.Fatalf("src capacity epoch = %d, want >= 2", e)
	}
	if got := r.fwd.PoolSize(); got != 1 {
		t.Errorf("fwd pool holds %d records after churn, want 1 (recycled, not grown)", got)
	}
	if got := r.rev.PoolSize(); got != 1 {
		t.Errorf("rev pool holds %d records after churn, want 1", got)
	}
	iterate() // warm any remaining slice growth before pinning allocs
	if avg := testing.AllocsPerRun(20, iterate); avg != 0 {
		t.Errorf("steady-state churn with epoch bumps allocates %v allocs/run, want 0", avg)
	}
	if got := r.fwd.PoolSize(); got != 1 {
		t.Errorf("fwd pool grew to %d records across alloc probe", got)
	}
}
