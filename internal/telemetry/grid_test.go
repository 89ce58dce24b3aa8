package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"llmbw/internal/sim"
)

// refCounter is the per-counter bucket layout the grid replaced: one slice
// of per-window bytes per counter, grown by doubling. It is the oracle the
// grid must match bit for bit.
type refCounter struct {
	window  sim.Time
	buckets []float64
	total   float64
	lastEnd sim.Time
}

func (c *refCounter) Add(from, to sim.Time, bytes float64) {
	if bytes == 0 {
		if to > c.lastEnd {
			c.lastEnd = to
		}
		return
	}
	c.total += bytes
	if to > c.lastEnd {
		c.lastEnd = to
	}
	first := int(from / c.window)
	c.grow(int(to/c.window) + 1)
	if to == from {
		c.buckets[first] += bytes
		return
	}
	span := float64(to - from)
	for w := first; sim.Time(w)*c.window < to; w++ {
		ws := sim.Time(w) * c.window
		we := ws + c.window
		s, e := max(ws, from), min(we, to)
		if e > s {
			c.buckets[w] += bytes * float64(e-s) / span
		}
	}
}

func (c *refCounter) grow(n int) {
	old := len(c.buckets)
	if n <= old {
		return
	}
	if n > cap(c.buckets) {
		size := max(2*cap(c.buckets), 1)
		for size < n {
			size *= 2
		}
		b := make([]float64, n, size)
		copy(b, c.buckets)
		c.buckets = b
		return
	}
	c.buckets = c.buckets[:n]
	clear(c.buckets[old:])
}

func (c *refCounter) SeriesRange(start, end sim.Time) Series {
	if end <= 0 {
		end = c.lastEnd
	}
	if start < 0 {
		start = 0
	}
	first := int((start + c.window - 1) / c.window)
	last := int(end / c.window)
	if last <= first {
		first = int(start / c.window)
		last = int(end / c.window)
		if sim.Time(last)*c.window < end {
			last++
		}
	}
	n := max(last-first, 0)
	out := make([]float64, n)
	wsec := c.window.ToSeconds()
	for i := 0; i < n; i++ {
		if w := first + i; w < len(c.buckets) {
			out[i] = c.buckets[w] / wsec
		}
	}
	return Series{Window: c.window, Rates: out}
}

func (c *refCounter) Reset() {
	c.buckets = c.buckets[:0]
	c.total = 0
	c.lastEnd = 0
}

// sameSeries reports the first difference between two series, comparing
// rates by their bits.
func sameSeries(got, want Series) error {
	if got.Window != want.Window || len(got.Rates) != len(want.Rates) {
		return fmt.Errorf("window %v × %d rates, want %v × %d", got.Window, len(got.Rates), want.Window, len(want.Rates))
	}
	for i := range want.Rates {
		if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
			return fmt.Errorf("rate %d = %v, want %v", i, got.Rates[i], want.Rates[i])
		}
	}
	return nil
}

// gridScenario draws intervals and byte counts for one sampling window,
// keeping every time below 2^62 so window arithmetic cannot overflow.
type gridScenario struct {
	rng     *rand.Rand
	window  sim.Time
	horizon sim.Time // intervals start in [0, horizon)
}

func newGridScenario(rng *rand.Rand) *gridScenario {
	// Log-uniform windows from 1 ns to 2^60 ns.
	exp := rng.Intn(61)
	window := 1 + sim.Time(rng.Int63n(int64(1)<<exp))
	horizon := sim.Time(1) << 61
	if window <= horizon/64 {
		horizon = 64 * window
	}
	return &gridScenario{rng: rng, window: window, horizon: horizon}
}

// interval returns a point span, a span inside or across one boundary, a
// multi-window span, or a span ending exactly on a window boundary.
func (s *gridScenario) interval() (from, to sim.Time) {
	from = sim.Time(s.rng.Int63n(int64(s.horizon)))
	switch s.rng.Intn(4) {
	case 0:
		return from, from
	case 1:
		return from, from + sim.Time(s.rng.Int63n(int64(s.window)))
	case 2:
		return from, from + 1 + sim.Time(s.rng.Int63n(int64(min(5*s.window, s.horizon))))
	default:
		return from, (from/s.window + 1 + sim.Time(s.rng.Intn(3))) * s.window
	}
}

// bytes spans many magnitudes, with exact zeros and integers mixed in.
func (s *gridScenario) bytes() float64 {
	switch s.rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return float64(s.rng.Int63n(1 << 40))
	default:
		return math.Ldexp(s.rng.Float64(), s.rng.Intn(120)-40)
	}
}

// readRange returns a query range: [0, lastEnd) via end 0, negative starts,
// and ends past the horizon.
func (s *gridScenario) readRange() (start, end sim.Time) {
	limit := int64(s.horizon + 2*s.window)
	start = sim.Time(s.rng.Int63n(limit)) - s.window
	if s.rng.Intn(4) == 0 {
		return start, 0
	}
	return start, sim.Time(s.rng.Int63n(limit))
}

// TestGridMatchesPerCounterBuckets: counters sharing a grid, bound at
// random moments (some after rows exist), credited through shared splits
// and through Add, and Reset at random, read bit-identically to the
// per-counter bucket layout — Total, Series and SeriesRange alike. A
// standalone counter (its own one-column grid) rides along.
func TestGridMatchesPerCounterBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		sc := newGridScenario(rng)
		g := NewGrid(sc.window)
		n := 1 + rng.Intn(6)
		cs := make([]*Counter, n+1)
		refs := make([]*refCounter, n+1)
		for i := range cs {
			cs[i] = NewCounter(fmt.Sprint("c", i), sc.window)
			refs[i] = &refCounter{window: sc.window}
		}
		standalone := n // recorded only through Add, never bound to g
		for step := 0; step < 60; step++ {
			i := rng.Intn(n + 1)
			c, ref := cs[i], refs[i]
			switch op := rng.Intn(10); {
			case i == standalone:
				from, to := sc.interval()
				b := sc.bytes()
				c.Add(from, to, b)
				ref.Add(from, to, b)
			case !c.Bound():
				g.Bind(c)
			case op == 0:
				c.Reset()
				ref.Reset()
			case op < 4:
				from, to := sc.interval()
				b := sc.bytes()
				c.Add(from, to, b)
				ref.Add(from, to, b)
			default:
				// A network advance: one split, then every bound counter
				// credited over it in a fixed order.
				from, to := sc.interval()
				g.Split(from, to)
				for j, c := range cs[:n] {
					if c.Bound() {
						b := sc.bytes()
						c.Credit(b)
						refs[j].Add(from, to, b)
					}
				}
			}
			for j, c := range cs {
				ref := refs[j]
				if math.Float64bits(c.Total()) != math.Float64bits(ref.total) {
					t.Fatalf("trial %d step %d window %v: %s total %v, want %v", trial, step, sc.window, c.Name, c.Total(), ref.total)
				}
				start, end := sc.readRange()
				if err := sameSeries(c.SeriesRange(start, end), ref.SeriesRange(start, end)); err != nil {
					t.Fatalf("trial %d step %d window %v: %s SeriesRange(%v, %v): %v", trial, step, sc.window, c.Name, start, end, err)
				}
				if err := sameSeries(c.Series(end), ref.SeriesRange(0, end)); err != nil {
					t.Fatalf("trial %d step %d window %v: %s Series(%v): %v", trial, step, sc.window, c.Name, end, err)
				}
			}
		}
	}
}

// TestGridIdleColumnsAndWindowsCostNothing: a row exists only for a window
// that received bytes, and only as wide as the columns bound by then.
func TestGridIdleColumnsAndWindowsCostNothing(t *testing.T) {
	g := NewGrid(sim.Second)
	a, b := NewCounter("a", sim.Second), NewCounter("b", sim.Second)
	g.Bind(a)
	a.Add(0, sim.Second, 1)
	a.Add(5*sim.Second, 5*sim.Second, 1)
	if len(g.rows) != 6 || len(g.rows[0]) != 1 || len(g.rows[5]) != 1 {
		t.Fatalf("rows %v, want windows 0 and 5 one column wide", g.rows)
	}
	for w := 1; w < 5; w++ {
		if g.rows[w] != nil {
			t.Errorf("idle window %d has a row", w)
		}
	}
	g.Bind(b)
	if len(g.rows[0]) != 1 {
		t.Errorf("binding widened an existing row to %d columns", len(g.rows[0]))
	}
	if got := b.Series(6 * sim.Second).Rates; len(got) != 6 || got[0] != 0 {
		t.Errorf("a column bound after the rows reads %v, want six zero windows", got)
	}
}

// TestGridBindCopiesLinearly: binding k columns one at a time inside a
// window that already has a row, each recording there right away, regrows
// the row by doubling. Allocations stay logarithmic in k and the final
// capacity below 2(k+1), so the slots copied sum to O(k); widening the row
// on every bind would copy O(k²).
func TestGridBindCopiesLinearly(t *testing.T) {
	const k = 4096
	cs := make([]Counter, k+1)
	var g *Grid
	allocs := testing.AllocsPerRun(1, func() {
		g = NewGrid(sim.Second)
		for i := range cs {
			cs[i] = Counter{Name: "c", window: sim.Second}
		}
		g.Bind(&cs[0])
		cs[0].Add(0, sim.Second/2, 1) // the window's row exists, one column wide
		for i := 1; i <= k; i++ {
			g.Bind(&cs[i])
			cs[i].Add(sim.Second/4, sim.Second/2, 1)
		}
	})
	// The grid, its row index, the first row, then one regrowth per
	// doubling from 1 to k+1 columns.
	if limit := float64(3 + bits.Len(k+1)); allocs > limit {
		t.Errorf("binding %d columns into a live window made %v allocations, want at most %v", k, allocs, limit)
	}
	if c := cap(g.rows[0]); c >= 2*(k+1) {
		t.Errorf("row capacity %d after %d columns, want below %d", c, k+1, 2*(k+1))
	}
	for i := range cs {
		if got := cs[i].Total(); got != 1 {
			t.Fatalf("column %d total %v, want 1", i, got)
		}
	}
}
