package fabric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"llmbw/internal/sim"
)

func link(name string, capGBps float64) *Link {
	return NewLink(name, NVLink, 0, capGBps*1e9, 0)
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowFullBandwidth(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10) // 10 GB/s
	var doneAt sim.Time
	net.StartFlow(&Flow{Name: "f", Path: []*Link{l}, Bytes: 5e9}, func() { doneAt = eng.Now() })
	eng.Run()
	if !almost(doneAt.ToSeconds(), 0.5, 1e-6) {
		t.Errorf("5 GB over 10 GB/s finished at %v, want 0.5s", doneAt)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	var at [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 5e9}, func() { at[i] = eng.Now() })
	}
	eng.Run()
	// Both get 5 GB/s, so both finish at 1 s.
	for i, a := range at {
		if !almost(a.ToSeconds(), 1.0, 1e-6) {
			t.Errorf("flow %d finished at %v, want 1s", i, a)
		}
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	var shortAt, longAt sim.Time
	net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 1e9}, func() { shortAt = eng.Now() })
	net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 9e9}, func() { longAt = eng.Now() })
	eng.Run()
	// Shared 5 GB/s each until short (1 GB) finishes at 0.2 s; long then has
	// 8 GB left at 10 GB/s -> finishes at 1.0 s.
	if !almost(shortAt.ToSeconds(), 0.2, 1e-6) {
		t.Errorf("short finished at %v, want 0.2s", shortAt)
	}
	if !almost(longAt.ToSeconds(), 1.0, 1e-6) {
		t.Errorf("long finished at %v, want 1.0s", longAt)
	}
}

func TestMaxMinFairnessAcrossBottlenecks(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	narrow := link("narrow", 2)
	wide := link("wide", 10)
	// Flow A crosses narrow+wide, flow B crosses wide only.
	a := &Flow{Name: "a", Path: []*Link{narrow, wide}, Bytes: 1e9}
	b := &Flow{Name: "b", Path: []*Link{wide}, Bytes: 8e9}
	net.StartFlow(a, nil)
	net.StartFlow(b, nil)
	// Max-min: A limited to 2 GB/s by narrow; B gets the rest of wide (8).
	if !almost(a.Rate(), 2e9, 1) {
		t.Errorf("a rate = %v, want 2e9", a.Rate())
	}
	if !almost(b.Rate(), 8e9, 1) {
		t.Errorf("b rate = %v, want 8e9", b.Rate())
	}
	eng.Run()
}

func TestPerFlowRateLimit(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	capped := &Flow{Path: []*Link{l}, Bytes: 1e9, RateLimit: 1e9}
	free := &Flow{Path: []*Link{l}, Bytes: 9e9}
	net.StartFlow(capped, nil)
	net.StartFlow(free, nil)
	if !almost(capped.Rate(), 1e9, 1) {
		t.Errorf("capped rate = %v, want 1e9", capped.Rate())
	}
	if !almost(free.Rate(), 9e9, 1) {
		t.Errorf("free rate = %v, want 9e9 (leftover)", free.Rate())
	}
	eng.Run()
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	done := false
	net.StartFlow(&Flow{Bytes: 0}, func() { done = true })
	eng.Run()
	if !done {
		t.Error("zero-byte flow never completed")
	}
}

func TestSetCapacityMidFlow(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	var doneAt sim.Time
	net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 10e9}, func() { doneAt = eng.Now() })
	// After 0.5 s (5 GB moved), capacity halves: remaining 5 GB at 5 GB/s.
	eng.Schedule(sim.Seconds(0.5), func() { net.SetCapacity(l, 5e9) })
	eng.Run()
	if !almost(doneAt.ToSeconds(), 1.5, 1e-6) {
		t.Errorf("finished at %v, want 1.5s", doneAt)
	}
}

func TestTelemetryRecordsBytes(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 5e9}, nil)
	eng.Run()
	net.Quiesce()
	if !almost(l.Counter().Total(), 5e9, 1) {
		t.Errorf("counted %v bytes, want 5e9", l.Counter().Total())
	}
}

func TestCountWeightDoublesTelemetry(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 10)
	l.CountWeight = 2
	net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 3e9}, nil)
	eng.Run()
	net.Quiesce()
	if !almost(l.Counter().Total(), 6e9, 1) {
		t.Errorf("counted %v bytes, want 6e9 with weight 2", l.Counter().Total())
	}
}

// TestAdvanceCreditsLiveRowsAllocFree: once every link is a column of the
// network's telemetry grid and the current window has its row, advancing
// time inside that window credits every (flow, link) pair in place.
func TestAdvanceCreditsLiveRowsAllocFree(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	links := make([]*Link, 8)
	for i := range links {
		links[i] = link("l", 10) // default 1 s telemetry window
	}
	flows := make([]*Flow, 24)
	restart := make([]func(), len(flows))
	for i := range flows {
		i := i
		flows[i] = &Flow{Path: []*Link{links[i%8], links[(i+3)%8]}, Bytes: 1e6 + 1e4*float64(i%5)}
		restart[i] = func() { net.StartFlow(flows[i], restart[i]) }
		net.StartFlow(flows[i], restart[i])
	}
	end := eng.RunUntil(100 * sim.Millisecond) // bind every link, make window 0's row
	allocs := testing.AllocsPerRun(50, func() {
		end += sim.Millisecond // 151 ms in all: every advance stays in window 0
		eng.RunUntil(end)
	})
	if allocs != 0 {
		t.Errorf("advancing inside a live telemetry window allocates %v times per ms, want 0", allocs)
	}
	net.Quiesce()
	for _, l := range links {
		if l.Counter().Total() == 0 || len(l.Counter().Series(end).Rates) != 1 {
			t.Fatalf("link recorded %v bytes over %d windows, want bytes in one window", l.Counter().Total(), len(l.Counter().Series(end).Rates))
		}
	}
}

func TestTransferBlocksProcess(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	l := link("l", 1)
	var resumed sim.Time
	eng.Schedule(0, func() {
		net.StartFlow(&Flow{Path: []*Link{l}, Bytes: 2e9}, func() { resumed = eng.Now() })
	})
	eng.Run()
	if !almost(resumed.ToSeconds(), 2.0, 1e-6) {
		t.Errorf("resumed at %v, want 2s", resumed)
	}
}

func TestManyFlowsConservation(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	links := []*Link{link("a", 3), link("b", 7), link("c", 2)}
	rng := rand.New(rand.NewSource(7))
	var want float64
	for i := 0; i < 50; i++ {
		path := []*Link{links[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			path = append(path, links[rng.Intn(3)])
		}
		// Dedupe accidental same-link pairs to keep counting simple.
		if len(path) == 2 && path[0] == path[1] {
			path = path[:1]
		}
		bytes := float64(1+rng.Intn(100)) * 1e7
		for range path {
			want += bytes
		}
		start := sim.Time(rng.Intn(1000)) * sim.Millisecond
		eng.ScheduleAt(start, func() {
			net.StartFlow(&Flow{Path: path, Bytes: bytes}, nil)
		})
	}
	eng.Run()
	net.Quiesce()
	var got float64
	for _, l := range links {
		got += l.Counter().Total()
	}
	if !almost(got, want, want*1e-6) {
		t.Errorf("telemetry total = %v, want %v", got, want)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", net.ActiveFlows())
	}
}

// Property: the fair-share allocation never oversubscribes any link and never
// assigns a negative rate.
func TestFairShareFeasibilityProperty(t *testing.T) {
	f := func(seed int64, nFlows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		net := NewNetwork(eng)
		links := make([]*Link, 4)
		for i := range links {
			links[i] = link("l", 1+rng.Float64()*20)
		}
		flows := make([]*Flow, 0, nFlows)
		for i := 0; i < int(nFlows%16)+1; i++ {
			perm := rng.Perm(4)[:1+rng.Intn(3)]
			path := make([]*Link, len(perm))
			for j, k := range perm {
				path[j] = links[k]
			}
			fl := &Flow{Path: path, Bytes: 1e12} // long-lived
			if rng.Intn(3) == 0 {
				fl.RateLimit = 1e8 + rng.Float64()*1e9
			}
			flows = append(flows, fl)
			net.StartFlow(fl, nil)
		}
		// Check feasibility of the allocation.
		load := make(map[*Link]float64)
		for _, fl := range flows {
			if fl.Rate() < 0 {
				return false
			}
			if fl.RateLimit > 0 && fl.Rate() > fl.RateLimit*(1+1e-9) {
				return false
			}
			for _, l := range fl.Path {
				load[l] += fl.Rate()
			}
		}
		for l, ld := range load {
			if ld > l.Capacity()*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: work conservation — if any flow could go faster, its bottleneck
// resource is saturated (within tolerance).
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		net := NewNetwork(eng)
		links := make([]*Link, 3)
		for i := range links {
			links[i] = link("l", 1+rng.Float64()*10)
		}
		var flows []*Flow
		for i := 0; i < 1+rng.Intn(8); i++ {
			path := []*Link{links[rng.Intn(3)]}
			fl := &Flow{Path: path, Bytes: 1e12}
			flows = append(flows, fl)
			net.StartFlow(fl, nil)
		}
		load := make(map[*Link]float64)
		for _, fl := range flows {
			for _, l := range fl.Path {
				load[l] += fl.Rate()
			}
		}
		for _, fl := range flows {
			saturated := false
			for _, l := range fl.Path {
				if load[l] >= l.Capacity()*(1-1e-9) {
					saturated = true
				}
			}
			if !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression for retire-during-iteration: when several flows complete at the
// exact same timestamp, one reshare must retire them all in a single pass
// (finished flows are collected first, then removed) without disturbing the
// survivors' reallocation.
func TestSimultaneousCompletionsChurn(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	shared := link("shared", 8)
	other := link("other", 4)
	// Four identical flows on the shared link: equal shares (2 GB/s each),
	// equal bytes, so all four complete at exactly t = 1 s.
	var doneAt [4]sim.Time
	for i := 0; i < 4; i++ {
		i := i
		net.StartFlow(&Flow{Path: []*Link{shared}, Bytes: 2e9}, func() { doneAt[i] = eng.Now() })
	}
	// A fifth flow on a disjoint link keeps running across the event.
	survivor := &Flow{Path: []*Link{other}, Bytes: 8e9}
	var survivorAt sim.Time
	net.StartFlow(survivor, func() { survivorAt = eng.Now() })
	// A sixth flow joins the shared link after the mass completion and
	// should then own its full capacity.
	late := &Flow{Path: []*Link{shared}, Bytes: 8e9}
	var lateAt sim.Time
	eng.ScheduleAt(sim.Seconds(1.5), func() { net.StartFlow(late, func() { lateAt = eng.Now() }) })
	eng.Run()
	for i, at := range doneAt {
		if !almost(at.ToSeconds(), 1.0, 1e-6) {
			t.Errorf("flow %d finished at %v, want 1s (simultaneous batch)", i, at)
		}
	}
	if !almost(survivorAt.ToSeconds(), 2.0, 1e-6) {
		t.Errorf("survivor finished at %v, want 2s", survivorAt)
	}
	// late starts at 1.5 s with 8 GB/s to itself: 8 GB / 8 GB/s = 1 s.
	if !almost(lateAt.ToSeconds(), 2.5, 1e-6) {
		t.Errorf("late flow finished at %v, want 2.5s", lateAt)
	}
	if net.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", net.ActiveFlows())
	}
	if shared.ActiveFlows() != 0 || other.ActiveFlows() != 0 {
		t.Errorf("links report active flows after drain: %d, %d",
			shared.ActiveFlows(), other.ActiveFlows())
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	defer func() {
		if recover() == nil {
			t.Error("negative bytes did not panic")
		}
	}()
	net.StartFlow(&Flow{Bytes: -1}, nil)
}

func TestLinkStringAndClassString(t *testing.T) {
	l := link("nv0", 25)
	if l.String() == "" || l.Class.String() != "NVLink" {
		t.Errorf("String: %q, class %q", l.String(), l.Class.String())
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still render")
	}
	if len(MeasuredClasses()) != 7 {
		t.Errorf("MeasuredClasses = %d, want 7", len(MeasuredClasses()))
	}
}

// TestSameInstantBurstSkipsScans pins what a reshare costs beside a wide
// registry: 256 long-lived flows hold private links while bursts of 32
// single-link flows are admitted one StartFlow at a time. Each admission
// re-rates only its own one-flow component, so a burst costs at most one
// next-completion rescan (when its first admission follows a time advance),
// no finish scan, and no allocation once warm.
func TestSameInstantBurstSkipsScans(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	for i := 0; i < 256; i++ {
		net.StartFlow(&Flow{Path: []*Link{bigWindowLink("long", 10)}, Bytes: 1e18}, nil)
	}
	// Two bursts alternate, each admitted as the other is half done, so
	// every step runs until the previous burst completes.
	var bursts [2][]*Flow
	for k := range bursts {
		bursts[k] = make([]*Flow, 32)
		for i := range bursts[k] {
			bursts[k][i] = &Flow{Path: []*Link{bigWindowLink("burst", 10)}, Bytes: 1e6} // 0.1 ms
		}
	}
	left := 0
	done := func() {
		if left--; left == 0 {
			eng.Stop()
		}
	}
	var nextScans, finishScans int64
	admit := func(burst []*Flow) {
		next0, finish0 := net.nextScans, net.finishScans
		for _, f := range burst {
			net.StartFlow(f, done)
		}
		nextScans, finishScans = net.nextScans-next0, net.finishScans-finish0
	}
	cycle := 0
	step := func() {
		burst := bursts[cycle%2]
		cycle++
		admit(burst)
		left = len(burst)
		eng.Run() // until the other burst completes
	}
	admit(bursts[1])
	eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	step() // first burst after a time advance
	if nextScans > 1 || finishScans != 0 {
		t.Errorf("burst after a time advance cost %d completion rescans and %d finish scans, want <= 1 and 0",
			nextScans, finishScans)
	}
	for i := 0; i < 3; i++ {
		step() // warm up registries, scratch lists and the event heap
	}
	if nextScans > 1 || finishScans != 0 {
		t.Errorf("burst of %d admissions cost %d completion rescans and %d finish scans, want <= 1 and 0",
			len(bursts[0]), nextScans, finishScans)
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Errorf("burst cycle allocates %v allocs/run, want 0", avg)
	}
}

// TestBurstKeepsOneCompletionPending: a same-instant burst of single-link
// StartFlows re-arms the network's one completion timer per admission, so
// exactly one firing is pending afterwards rather than one per superseded
// arming.
func TestBurstKeepsOneCompletionPending(t *testing.T) {
	eng := sim.New()
	net := NewNetwork(eng)
	const n = 16
	for i := 0; i < n; i++ {
		net.StartFlow(&Flow{Path: []*Link{link("burst", 10)}, Bytes: 1e6 * float64(1+i)}, nil)
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("after a burst of %d admissions %d events are pending, want 1", n, p)
	}
	eng.Run()
	if net.ActiveFlows() != 0 || eng.Pending() != 0 {
		t.Fatalf("after Run: %d active flows, %d pending, want 0 and 0", net.ActiveFlows(), eng.Pending())
	}
}
