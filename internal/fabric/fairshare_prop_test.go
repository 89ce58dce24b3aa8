package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"llmbw/internal/sim"
)

// referenceFairShare is the pre-optimization allocator kept as an executable
// specification: a full map-based progressive-filling recompute over every
// active flow, exactly as fabric shipped before component-wise resharing.
// The incremental path must agree with it on every topology.
func referenceFairShare(flows []*Flow) map[*Flow]float64 {
	rate := make(map[*Flow]float64, len(flows))
	if len(flows) == 0 {
		return rate
	}
	type linkState struct {
		cap      float64
		unfrozen int
	}
	frozen := make(map[*Flow]bool, len(flows))
	states := make(map[*Link]*linkState)
	for _, f := range flows {
		for _, l := range f.Path {
			st := states[l]
			if st == nil {
				st = &linkState{cap: l.capacity}
				states[l] = st
			}
			st.unfrozen++
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		share := math.MaxFloat64
		for _, st := range states {
			if st.unfrozen == 0 {
				continue
			}
			if s := st.cap / float64(st.unfrozen); s < share {
				share = s
			}
		}
		for _, f := range flows {
			if !frozen[f] && f.RateLimit > 0 && f.RateLimit < share {
				share = f.RateLimit
			}
		}
		progressed := false
		for _, f := range flows {
			if frozen[f] {
				continue
			}
			capped := f.RateLimit > 0 && f.RateLimit <= share*(1+1e-12)
			bottled := false
			if !capped {
				for _, l := range f.Path {
					st := states[l]
					if st.unfrozen > 0 && st.cap/float64(st.unfrozen) <= share*(1+1e-12) {
						bottled = true
						break
					}
				}
			}
			if !capped && !bottled {
				continue
			}
			frozen[f] = true
			rate[f] = share
			if capped && f.RateLimit < share {
				rate[f] = f.RateLimit
			}
			unfrozen--
			progressed = true
			for _, l := range f.Path {
				st := states[l]
				st.cap -= rate[f]
				if st.cap < 0 {
					st.cap = 0
				}
				st.unfrozen--
			}
		}
		if !progressed {
			panic("reference fair share made no progress")
		}
	}
	return rate
}

// referenceNextCompletion is the next-completion arming loop as fabric
// shipped before the cached minimum: the earliest projected completion,
// relative to the last advance, over a full walk of every active flow.
// Returns math.MaxInt64 when no flow has a positive rate.
func referenceNextCompletion(flows []*Flow) sim.Time {
	soonest := sim.Time(math.MaxInt64)
	for _, f := range flows {
		if f.rate <= 0 {
			continue
		}
		eta := sim.Time(math.Ceil(f.remaining / f.rate * float64(sim.Second)))
		if eta < 1 {
			eta = 1
		}
		if eta < soonest {
			soonest = eta
		}
	}
	return soonest
}

// checkNextCompletion asserts that the armed next completion equals the
// reference full scan, and that every flow already within the finish
// tolerance is flagged for the next finish scan.
func checkNextCompletion(net *Network) string {
	for _, f := range net.active {
		if f.remaining <= 1e-6 && !net.mayFinish {
			return "finished flow not flagged for retirement"
		}
	}
	if len(net.active) == 0 {
		return ""
	}
	if !net.nextValid {
		return "active flows but no next completion armed"
	}
	if want := referenceNextCompletion(net.active); net.nextETA != want {
		return fmt.Sprintf("next completion armed at +%d ns, reference scan says +%d ns", net.nextETA, want)
	}
	return ""
}

// checkFairShare asserts the three max-min invariants over the currently
// active flows, cross-checks every rate against the reference allocator and
// the armed next completion against the reference scan. Returns a non-empty
// description on violation.
func checkFairShare(t *testing.T, net *Network) string {
	t.Helper()
	if msg := checkNextCompletion(net); msg != "" {
		return msg
	}
	flows := net.active
	load := make(map[*Link]float64)
	for _, f := range flows {
		if f.rate < 0 {
			return "negative rate"
		}
		// (b) no flow exceeds its rate limit.
		if f.RateLimit > 0 && f.rate > f.RateLimit*(1+1e-9) {
			return "rate limit exceeded"
		}
		for _, l := range f.Path {
			load[l] += f.rate
		}
	}
	// (a) per-link rate sums never exceed capacity.
	for l, ld := range load {
		if ld > l.capacity*(1+1e-9) {
			return "link oversubscribed"
		}
	}
	// (c) max-min optimality: a flow below its rate limit must have a
	// bottleneck link — saturated, with the flow among its fastest users —
	// so raising it necessarily lowers a flow that is no faster.
	for _, f := range flows {
		if f.RateLimit > 0 && f.rate >= f.RateLimit*(1-1e-9) {
			continue
		}
		bottleneck := false
		for _, l := range f.Path {
			if load[l] < l.capacity*(1-1e-9) {
				continue
			}
			fastest := true
			for _, g := range l.active {
				if g.rate > f.rate*(1+1e-9) {
					fastest = false
					break
				}
			}
			if fastest {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return "flow could be raised without lowering a slower one"
		}
	}
	// Cross-check against the reference full recompute.
	want := referenceFairShare(flows)
	for _, f := range flows {
		w := want[f]
		tol := 1e-6 * math.Max(1, math.Max(w, f.rate))
		if math.Abs(f.rate-w) > tol {
			return "incremental rate diverges from reference recompute"
		}
	}
	return ""
}

// scenarioBytes draws a flow volume: usually 0.1–1.1 GB, and one time in
// eight at most the 1e-6-byte finish tolerance, so the flow is finished on
// admission.
func scenarioBytes(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return (1 - rng.Float64()) * 1e-6
	}
	return (0.1 + rng.Float64()) * 1e9
}

// fairShareScenario drives one randomized topology through starts, a
// capacity change, a same-instant burst beside the long-lived flows, and
// completions, checking the allocation and the armed next completion after
// every reallocation trigger. Returns a description of the first violation.
func fairShareScenario(t *testing.T, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New()
	net := NewNetwork(eng)
	links := make([]*Link, 2+rng.Intn(6))
	for i := range links {
		links[i] = NewLink("l", NVLink, 0, (0.5+rng.Float64()*20)*1e9, 0)
	}
	// Incremental start path: check after every flow joins.
	nFlows := 1 + rng.Intn(24)
	for i := 0; i < nFlows; i++ {
		perm := rng.Perm(len(links))[:1+rng.Intn(min(3, len(links)))]
		path := make([]*Link, len(perm))
		for j, k := range perm {
			path[j] = links[k]
		}
		fl := &Flow{Path: path, Bytes: scenarioBytes(rng)}
		if rng.Intn(3) == 0 {
			fl.RateLimit = 1e7 + rng.Float64()*2e9
		}
		net.StartFlow(fl, nil)
		if msg := checkFairShare(t, net); msg != "" {
			return "after start: " + msg
		}
	}
	// Capacity-change path.
	l := links[rng.Intn(len(links))]
	net.SetCapacity(l, (0.5+rng.Float64()*20)*1e9)
	if msg := checkFairShare(t, net); msg != "" {
		return "after capacity change: " + msg
	}
	// Let the long-lived flows run a while, then admit a batch and a burst
	// at one instant. StartFlows runs its finish scan at its first admitted
	// flow, so a flow finished on admission later in the batch stays
	// active, flagged, and usually holds the next completion until the
	// burst's first reshare retires it.
	eng.RunUntil(eng.Now() + sim.Time(1+rng.Intn(50))*sim.Millisecond)
	batch := make([]*Flow, 1+rng.Intn(4))
	for i := range batch {
		batch[i] = &Flow{Path: []*Link{links[rng.Intn(len(links))]}, Bytes: scenarioBytes(rng)}
	}
	net.StartFlows(batch, nil)
	if msg := checkFairShare(t, net); msg != "" {
		return "after batch start: " + msg
	}
	// Same-instant burst: single-link flows on private links, one StartFlow
	// at a time. Each admission re-rates only its own component, so the
	// armed completion is folded rather than rescanned; some burst flows
	// undercut the long-lived holder and some are finished on admission.
	for i, burst := 0, 1+rng.Intn(8); i < burst; i++ {
		fl := &Flow{Path: []*Link{NewLink("b", NVLink, 0, (0.5+rng.Float64()*20)*1e9, 0)}, Bytes: scenarioBytes(rng) / 4}
		net.StartFlow(fl, nil)
		if msg := checkFairShare(t, net); msg != "" {
			return "after burst start: " + msg
		}
	}
	// Completion/retire path: step the clock and re-check as flows drain.
	for eng.Pending() > 0 && net.ActiveFlows() > 0 {
		eng.RunUntil(eng.Now() + sim.Time(1+rng.Intn(200))*sim.Millisecond)
		if msg := checkFairShare(t, net); msg != "" {
			return "after completions: " + msg
		}
	}
	return ""
}

// TestFairSharePropertyAgainstReference: for random flow/link topologies the
// incremental allocator must satisfy feasibility, rate limits and max-min
// optimality, and agree with the full-recompute reference, across flow
// starts, capacity changes and completions.
func TestFairSharePropertyAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		if msg := fairShareScenario(t, seed); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FuzzFairShare exposes the same scenario to the native fuzzer.
func FuzzFairShare(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, -99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if msg := fairShareScenario(t, seed); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
		}
	})
}
