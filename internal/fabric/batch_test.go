package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"llmbw/internal/sim"
)

// bigWindowLink returns a link whose telemetry window exceeds any virtual
// time the alloc tests reach, so bucket growth cannot contribute allocations.
func bigWindowLink(name string, capGBps float64) *Link {
	return NewLink(name, NVLink, 0, capGBps*1e9, sim.Time(1)<<60)
}

// admissionScenarioCompletions drives a randomized mix of admissions —
// shared and disjoint paths, rate-limited flows, zero-byte markers — and
// returns the completion timestamps in event order. Each batch is admitted
// with one StartFlows call, or (batch=false) with one StartFlow call per flow
// in order, the serial reference. The rng seed is fixed, so the only degree
// of freedom between calls is the admission path under test.
func admissionScenarioCompletions(batch bool) []sim.Time {
	eng := sim.New()
	net := NewNetwork(eng)
	links := []*Link{link("a", 3), link("b", 7), link("c", 2), link("d", 5)}
	rng := rand.New(rand.NewSource(99))
	var completions []sim.Time
	record := func() { completions = append(completions, eng.Now()) }
	for b := 0; b < 10; b++ {
		var flows []*Flow
		for j := 0; j < 1+rng.Intn(6); j++ {
			perm := rng.Perm(len(links))[:1+rng.Intn(3)]
			path := make([]*Link, len(perm))
			for k, li := range perm {
				path[k] = links[li]
			}
			f := &Flow{Name: fmt.Sprintf("b%df%d", b, j), Path: path,
				Bytes: float64(rng.Intn(40)) * 5e7} // occasionally zero bytes
			if rng.Intn(4) == 0 {
				f.RateLimit = 2e8 + rng.Float64()*2e9
			}
			flows = append(flows, f)
		}
		at := sim.Time(rng.Intn(1500)) * sim.Millisecond
		eng.ScheduleAt(at, func() {
			if batch {
				net.StartFlows(flows, record)
				return
			}
			for _, f := range flows {
				net.StartFlow(f, record)
			}
		})
	}
	eng.Run()
	return completions
}

// TestStartFlowsMatchesSerialAdmission is the fabric-level determinism A/B:
// batched admission must produce exactly the completion sequence of admitting
// the same flows one StartFlow at a time — same timestamps, same order, down
// to the nanosecond. This is the contract the golden tests lean on.
func TestStartFlowsMatchesSerialAdmission(t *testing.T) {
	serial := admissionScenarioCompletions(false)
	batched := admissionScenarioCompletions(true)
	if len(serial) != len(batched) {
		t.Fatalf("completion counts differ: serial %d, batched %d", len(serial), len(batched))
	}
	if len(serial) == 0 {
		t.Fatal("scenario produced no completions")
	}
	for i := range serial {
		if serial[i] != batched[i] {
			t.Errorf("completion %d: serial at %v, batched at %v", i, serial[i], batched[i])
		}
	}
}

// TestStartFlowsOneResharePerComponent pins the reshare-count probe: a batch
// costs one progressive-filling pass per connected component it touches, not
// one per flow.
func TestStartFlowsOneResharePerComponent(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	a, b := link("a", 8), link("b", 4)
	batch := []*Flow{
		{Path: []*Link{a}, Bytes: 1e9},
		{Path: []*Link{a}, Bytes: 2e9},
		{Path: []*Link{a}, Bytes: 3e9},
		{Path: []*Link{b}, Bytes: 1e9},
		{Path: []*Link{b}, Bytes: 2e9},
	}
	before := net.Reshares()
	net.StartFlows(batch, nil)
	if got := net.Reshares() - before; got != 2 {
		t.Errorf("5 flows over 2 disjoint components cost %d reshares, want 2", got)
	}
	eng.Run()

	// A leg spanning both links merges everything into one component.
	bridge := []*Flow{
		{Path: []*Link{a}, Bytes: 1e9},
		{Path: []*Link{b}, Bytes: 1e9},
		{Path: []*Link{a, b}, Bytes: 1e9},
	}
	before = net.Reshares()
	net.StartFlows(bridge, nil)
	if got := net.Reshares() - before; got != 1 {
		t.Errorf("bridged batch cost %d reshares, want 1", got)
	}
	eng.Run()
}

// TestSerialAdmissionResharesPerFlow documents the cost batching removes:
// admitting the same flows one StartFlow at a time pays one reshare each.
func TestSerialAdmissionResharesPerFlow(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 8)
	batch := make([]*Flow, 5)
	for i := range batch {
		batch[i] = &Flow{Path: []*Link{l}, Bytes: 1e9}
	}
	before := net.Reshares()
	for _, f := range batch {
		net.StartFlow(f, nil)
	}
	if got := net.Reshares() - before; got != 5 {
		t.Errorf("serial admission of 5 flows cost %d reshares, want 5", got)
	}
	eng.Run()
}

// TestBatchedAdmissionSteadyStateZeroAlloc pins the allocation contract of
// the resharing hot path: once registries, scratch buffers and the completion
// event pool have warmed up, admitting and draining a batch allocates nothing.
func TestBatchedAdmissionSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l1, l2 := bigWindowLink("l1", 10), bigWindowLink("l2", 10)
	flows := []*Flow{
		{Path: []*Link{l1}, Bytes: 1e9},
		{Path: []*Link{l1, l2}, Bytes: 2e9},
		{Path: []*Link{l2}, Bytes: 1e9},
	}
	iterate := func() {
		net.StartFlows(flows, nil)
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		iterate() // warm up slice capacities and the event pool
	}
	if avg := testing.AllocsPerRun(50, iterate); avg != 0 {
		t.Errorf("steady-state batched admission allocates %v allocs/run, want 0", avg)
	}
}

// TestStartFlowsZeroByteAndEmptyBatch covers the degenerate inputs: an empty
// batch is a no-op, and zero-byte flows in a batch still complete with their
// callback exactly once each.
func TestStartFlowsZeroByteAndEmptyBatch(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	net.StartFlows(nil, func() { t.Error("empty batch invoked callback") })
	l := link("l", 10)
	calls := 0
	net.StartFlows([]*Flow{
		{Bytes: 0},
		{Path: []*Link{l}, Bytes: 1e9},
		{Path: []*Link{l}, Bytes: 0},
	}, func() { calls++ })
	eng.Run()
	if calls != 3 {
		t.Errorf("callback ran %d times, want 3", calls)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", net.ActiveFlows())
	}
}
