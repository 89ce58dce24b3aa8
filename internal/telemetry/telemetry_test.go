package telemetry

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"llmbw/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCounterSingleWindow(t *testing.T) {
	c := NewCounter("x", 100*sim.Millisecond)
	c.Add(0, 50*sim.Millisecond, 1e9)
	s := c.Series(100 * sim.Millisecond)
	if len(s.Rates) != 1 {
		t.Fatalf("windows = %d, want 1", len(s.Rates))
	}
	// 1 GB in a 0.1 s window -> 10 GB/s window rate.
	if !almost(s.Rates[0], 10e9, 1) {
		t.Errorf("rate = %v, want 10e9", s.Rates[0])
	}
}

func TestCounterSplitsAcrossWindows(t *testing.T) {
	c := NewCounter("x", 100*sim.Millisecond)
	// 3 GB spread uniformly over [50ms, 350ms): windows get 50/100/100/50 ms shares.
	c.Add(50*sim.Millisecond, 350*sim.Millisecond, 3e9)
	s := c.Series(400 * sim.Millisecond)
	wantBytes := []float64{0.5e9, 1e9, 1e9, 0.5e9}
	for i, wb := range wantBytes {
		got := s.Rates[i] * 0.1
		if !almost(got, wb, 1e3) {
			t.Errorf("window %d bytes = %v, want %v", i, got, wb)
		}
	}
	if !almost(c.Total(), 3e9, 1) {
		t.Errorf("total = %v, want 3e9", c.Total())
	}
}

func TestCounterPointInterval(t *testing.T) {
	c := NewCounter("x", sim.Millisecond)
	c.Add(5*sim.Millisecond, 5*sim.Millisecond, 42)
	s := c.Series(10 * sim.Millisecond)
	if got := s.Rates[5] * 0.001; !almost(got, 42, 1e-9) {
		t.Errorf("point bytes = %v, want 42", got)
	}
}

func TestCounterZeroFillsIdleTail(t *testing.T) {
	c := NewCounter("x", 100*sim.Millisecond)
	c.Add(0, 100*sim.Millisecond, 1e9)
	st := c.Stats(sim.Second)
	// 1 GB over 1 s total -> avg 1 GB/s, peak 10 GB/s.
	if !almost(st.Avg, 1e9, 1e3) {
		t.Errorf("avg = %v, want 1e9", st.Avg)
	}
	if !almost(st.Peak, 10e9, 1e3) {
		t.Errorf("peak = %v, want 10e9", st.Peak)
	}
}

func TestCounterReset(t *testing.T) {
	c := NewCounter("x", 0)
	c.Add(0, DefaultWindow, 100)
	c.Reset()
	if c.Total() != 0 || len(c.Series(DefaultWindow).Rates) != 1 {
		t.Error("reset did not clear counter")
	}
	if c.Series(DefaultWindow).Rates[0] != 0 {
		t.Error("reset left residual rate")
	}
}

// TestCounterResetThenLaterWindow: Reset keeps the counter's rows, so a
// later Add into one of them must read 0 in every window before its own.
func TestCounterResetThenLaterWindow(t *testing.T) {
	c := NewCounter("x", sim.Second)
	c.Add(0, 4*sim.Second, 4e9)
	c.Reset()
	c.Add(3*sim.Second, 4*sim.Second, 5e9)
	got := c.Series(4 * sim.Second).Rates
	want := []float64{0, 0, 0, 5e9}
	if len(got) != len(want) {
		t.Fatalf("windows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d rate = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCounterPanicsOnBadInput(t *testing.T) {
	c := NewCounter("x", 0)
	for name, fn := range map[string]func(){
		"negative bytes":    func() { c.Add(0, 1, -1) },
		"inverted interval": func() { c.Add(10, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: total bytes recorded equals the sum over window buckets,
// regardless of how intervals land on window boundaries.
func TestCounterConservationProperty(t *testing.T) {
	f := func(spans []struct {
		From  uint16
		Len   uint16
		Bytes uint32
	}) bool {
		c := NewCounter("x", 7*sim.Millisecond)
		var want float64
		var end sim.Time
		for _, sp := range spans {
			from := sim.Time(sp.From) * sim.Microsecond * 50
			to := from + sim.Time(sp.Len)*sim.Microsecond*50
			c.Add(from, to, float64(sp.Bytes))
			want += float64(sp.Bytes)
			if to > end {
				end = to
			}
		}
		s := c.Series(end + c.Window())
		got := 0.0
		for _, r := range s.Rates {
			got += r * c.Window().ToSeconds()
		}
		return almost(got, want, 1e-3*(want+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStatsOfKnownSeries(t *testing.T) {
	s := Series{Window: sim.Second, Rates: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	st := s.Stats()
	if !almost(st.Avg, 5.5, 1e-9) {
		t.Errorf("avg = %v, want 5.5", st.Avg)
	}
	if !almost(st.P90, 9, 1e-9) {
		t.Errorf("p90 = %v, want 9", st.P90)
	}
	if !almost(st.Peak, 10, 1e-9) {
		t.Errorf("peak = %v, want 10", st.Peak)
	}
}

func TestPercentileEdges(t *testing.T) {
	s := Series{Window: sim.Second, Rates: []float64{3, 1, 2}}
	if s.Percentile(0) != 1 {
		t.Errorf("p0 = %v, want 1", s.Percentile(0))
	}
	if s.Percentile(100) != 3 {
		t.Errorf("p100 = %v, want 3", s.Percentile(100))
	}
	if (Series{}).Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// Property: for any series, Avg <= P90 is not guaranteed, but
// min <= Avg <= Peak and P90 <= Peak always hold.
func TestStatsOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		rates := make([]float64, len(raw))
		minR := math.MaxFloat64
		for i, v := range raw {
			rates[i] = float64(v)
			if rates[i] < minR {
				minR = rates[i]
			}
		}
		st := Series{Window: sim.Second, Rates: rates}.Stats()
		return st.Avg >= minR-1e-9 && st.Avg <= st.Peak+1e-9 && st.P90 <= st.Peak+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesSum(t *testing.T) {
	a := Series{Window: sim.Second, Rates: []float64{1, 2}}
	b := Series{Window: sim.Second, Rates: []float64{10, 20, 30}}
	got := a.Sum(b)
	want := []float64{11, 22, 30}
	for i := range want {
		if got.Rates[i] != want[i] {
			t.Errorf("sum[%d] = %v, want %v", i, got.Rates[i], want[i])
		}
	}
}

func TestSeriesSumEmptyOperands(t *testing.T) {
	a := Series{Window: sim.Second, Rates: []float64{1}}
	if got := (Series{}).Sum(a); len(got.Rates) != 1 || got.Rates[0] != 1 {
		t.Errorf("empty.Sum(a) = %v", got.Rates)
	}
	if got := a.Sum(Series{}); len(got.Rates) != 1 || got.Rates[0] != 1 {
		t.Errorf("a.Sum(empty) = %v", got.Rates)
	}
}

func TestSeriesSumWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("window mismatch did not panic")
		}
	}()
	a := Series{Window: sim.Second, Rates: []float64{1}}
	b := Series{Window: sim.Millisecond, Rates: []float64{1}}
	a.Sum(b)
}

func TestDownsample(t *testing.T) {
	s := Series{Window: sim.Second, Rates: []float64{1, 3, 5, 7, 9}}
	d := s.Downsample(2)
	want := []float64{2, 6, 9}
	if len(d.Rates) != len(want) {
		t.Fatalf("len = %d, want %d", len(d.Rates), len(want))
	}
	for i := range want {
		if !almost(d.Rates[i], want[i], 1e-9) {
			t.Errorf("ds[%d] = %v, want %v", i, d.Rates[i], want[i])
		}
	}
	if d.Window != 2*sim.Second {
		t.Errorf("window = %v, want 2s", d.Window)
	}
}

func TestSparkline(t *testing.T) {
	s := Series{Window: sim.Second, Rates: []float64{0, 5, 10}}
	line := s.Sparkline(10)
	if line == "" {
		t.Fatal("empty sparkline")
	}
	if !strings.ContainsRune(line, '█') {
		t.Errorf("sparkline %q missing full bar for peak", line)
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{Avg: 1.5e9, P90: 2e9, Peak: 3e9}
	s := st.String()
	if !strings.Contains(s, "1.50") || !strings.Contains(s, "3.00") {
		t.Errorf("unexpected format: %q", s)
	}
	a, p, k := st.GBps()
	if a != 1.5 || p != 2 || k != 3 {
		t.Errorf("GBps = %v %v %v", a, p, k)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Avg: 1, P90: 2, Peak: 3}
	b := Stats{Avg: 10, P90: 20, Peak: 30}
	got := a.Add(b)
	if got.Avg != 11 || got.P90 != 22 || got.Peak != 33 {
		t.Errorf("Add = %+v", got)
	}
}
