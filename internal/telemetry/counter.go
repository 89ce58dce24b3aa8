// Package telemetry implements the measurement side of the reproduction: the
// byte counters attached to every interconnect link, the fixed-window sampler
// that turns them into bandwidth time series, and the average / 90th
// percentile / peak statistics reported in the paper's Table IV and Table VI.
//
// The paper samples its counters with AMD µProf, nvidia-smi and NIC hardware
// counters; all report aggregate bidirectional traffic per interconnect. We
// mirror that convention: a Counter accumulates bytes into fixed virtual-time
// windows, and Stats are computed over per-window rates.
package telemetry

import (
	"fmt"

	"llmbw/internal/sim"
)

// DefaultWindow is the sampling window used for bandwidth statistics,
// matching the ~1 Hz sampling of AMD µProf and nvidia-smi that produces the
// paper's utilization-pattern figures (Fig 9, 10, 12) over a 200 s run.
const DefaultWindow = sim.Second

// Counter accumulates transferred bytes into fixed-duration windows of
// virtual time. It is not safe for concurrent use; the simulation is
// single-threaded by construction.
type Counter struct {
	Name    string
	window  sim.Time
	buckets []float64 // bytes per window
	total   float64
	lastEnd sim.Time // latest time any bytes were recorded up to
}

// NewCounter returns a counter with the given sampling window. A zero or
// negative window falls back to DefaultWindow.
func NewCounter(name string, window sim.Time) *Counter {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Counter{Name: name, window: window}
}

// Window returns the sampling window duration.
func (c *Counter) Window() sim.Time { return c.window }

// Total returns the cumulative bytes recorded.
func (c *Counter) Total() float64 { return c.total }

// Add records bytes transferred uniformly over the interval [from, to). Zero
// and point intervals attribute all bytes to the window containing from.
func (c *Counter) Add(from, to sim.Time, bytes float64) {
	if bytes < 0 {
		panic(fmt.Sprintf("telemetry: negative bytes %f on %s", bytes, c.Name))
	}
	if to < from {
		panic(fmt.Sprintf("telemetry: inverted interval [%v,%v) on %s", from, to, c.Name))
	}
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
		s, e := maxTime(ws, from), minTime(we, to)
		if e > s {
			c.buckets[w] += bytes * float64(e-s) / span
		}
	}
}

// grow extends the buckets to n windows in one step. Outgrowing the
// capacity costs one allocation however many windows it reveals; the
// capacity doubles until n fits, as appends double a small slice, so the
// windows that follow find slack instead of reallocating again. Revealed
// slots within capacity are cleared: Reset truncates without clearing.
func (c *Counter) grow(n int) {
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

// Series returns the per-window bandwidth in bytes/second covering [0, end).
// Windows past the last recorded activity are zero-filled so that idle time
// correctly drags down the average, matching how the paper's monitors report.
func (c *Counter) Series(end sim.Time) Series { return c.SeriesRange(0, end) }

// SeriesRange returns the per-window bandwidth covering [start, end), used to
// exclude warm-up iterations from statistics the way the paper starts its
// collection at the fifth iteration. Only windows lying entirely inside the
// range contribute, so bytes from outside the measurement interval cannot
// bleed into the statistics; if the range is shorter than one full window it
// falls back to the windows the range touches.
func (c *Counter) SeriesRange(start, end sim.Time) Series {
	if end <= 0 {
		end = c.lastEnd
	}
	if start < 0 {
		start = 0
	}
	// Align to whole windows inside [start, end).
	first := int((start + c.window - 1) / c.window)
	last := int(end / c.window) // exclusive
	if last <= first {
		// Degenerate short range: use the touched windows instead.
		first = int(start / c.window)
		last = int(end / c.window)
		if sim.Time(last)*c.window < end {
			last++
		}
	}
	n := last - first
	if n < 0 {
		n = 0
	}
	out := make([]float64, n)
	wsec := c.window.ToSeconds()
	for i := 0; i < n; i++ {
		if w := first + i; w < len(c.buckets) {
			out[i] = c.buckets[w] / wsec
		}
	}
	return Series{Window: c.window, Rates: out}
}

// Stats computes bandwidth statistics over [0, end).
func (c *Counter) Stats(end sim.Time) Stats { return c.Series(end).Stats() }

// Reset clears all recorded data.
func (c *Counter) Reset() {
	c.buckets = c.buckets[:0]
	c.total = 0
	c.lastEnd = 0
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}
