package schedule

import (
	"fmt"
	"reflect"
	"testing"

	"llmbw/internal/collective"
	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// logEnv runs programs on a single-node testbed and logs every traced span
// and every memory allocation.
type logEnv struct {
	c     *topology.Cluster
	world *collective.Group
	log   []entry
}

// entry is one logged event: a traced span, or an allocation at start with
// the number of flows active on the fabric at that moment.
type entry struct {
	what       string
	start, end sim.Time
	active     int
}

func newLogEnv() *logEnv {
	c := topology.New(topology.DefaultConfig(1))
	return &logEnv{c: c, world: collective.NewGroup(c, collective.NodeMajorRanks(1, 4))}
}

func (e *logEnv) Engine() *sim.Engine                   { return e.c.Eng }
func (e *logEnv) Network() *fabric.Network              { return e.c.Net }
func (e *logEnv) World() *collective.Group              { return e.world }
func (e *logEnv) FlowBuilder(*Op) func() []*fabric.Flow { return nil }
func (e *logEnv) NVMeTargets() []NVMeTarget             { return nil }
func (e *logEnv) MemFree(float64)                       {}

func (e *logEnv) MemAlloc(bytes float64) {
	now := e.c.Eng.Now()
	e.log = append(e.log, entry{fmt.Sprint("alloc", bytes), now, now, e.c.Net.ActiveFlows()})
}

func (e *logEnv) TraceOp(op *Op, start, end sim.Time) {
	e.log = append(e.log, entry{what: op.Col.String(), start: start, end: end})
}

func (e *logEnv) whats() []string {
	var out []string
	for _, l := range e.log {
		out = append(out, l.what)
	}
	return out
}

// TestAsyncHandle pins the stream latch each OpEnqueue record carries. When
// its collective fires, the trace comes first and the waiters then run in
// registration order; a waiter registered on a latch that has already fired
// runs one +0 event later, not inline. A stream start chained behind such a
// tail is that case: the program runs on before the collective starts.
func TestAsyncHandle(t *testing.T) {
	env := newLogEnv()
	eng := env.c.Eng
	b := NewBuilder()
	q := b.NewQueue(0, 2)
	s := b.EnqueueSlot(q, collective.AllReduce, 2e9)
	b.WaitSlot(q, s)
	b.Enqueue(q, collective.AllGather, 1e9)
	b.Alloc(1)
	b.Barrier(q)
	b.Alloc(2)
	ex := NewExecutor(env, b.S)

	// The latch alone, armed as push leaves it and fired by hand.
	mark := func(what string) func() {
		return func() { env.log = append(env.log, entry{what: what}) }
	}
	is := ex.state[0].issue
	is.done = false
	is.then(mark("first"))
	is.then(mark("second"))
	is.fire()
	is.then(mark("late"))
	if got, want := env.whats(), []string{"all-reduce", "first", "second"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("latch fired %q, want %q", got, want)
	}
	eng.Run()
	if got, want := env.whats(), []string{"all-reduce", "first", "second", "late"}; !reflect.DeepEqual(got, want) || eng.Now() != 0 {
		t.Fatalf("late waiter: %q at %v, want %q at 0", got, eng.Now(), want)
	}

	// The program: the all-gather is pushed behind the fired all-reduce, so
	// alloc1 runs with no flow active and the all-gather starts +0 later, at
	// the instant the all-reduce ended.
	env.log = nil
	finished := false
	if ex.Run(func() { finished = true }) {
		t.Fatal("the program completed inline")
	}
	eng.Run()
	if got, want := env.whats(), []string{"all-reduce", "alloc1", "all-gather", "alloc2"}; !finished || !reflect.DeepEqual(got, want) {
		t.Fatalf("program finished=%v with log %q, want %q", finished, got, want)
	}
	ar, a1, ag, a2 := env.log[0], env.log[1], env.log[2], env.log[3]
	if a1.start != ar.end || a1.active != 0 {
		t.Errorf("alloc1 ran at %v with %d flows active; want at the all-reduce's end %v with none (the chained start is not inline)", a1.start, a1.active, ar.end)
	}
	if ag.start != ar.end || ag.end <= ag.start {
		t.Errorf("all-gather spans %v-%v; want it to start at the all-reduce's end %v", ag.start, ag.end, ar.end)
	}
	if a2.start != ag.end || a2.active != 0 {
		t.Errorf("alloc2 ran at %v with %d flows active; want at the all-gather's end %v with none", a2.start, a2.active, ag.end)
	}
}
