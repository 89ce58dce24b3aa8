// Package telemetry implements the measurement side of the reproduction: the
// byte counters attached to every interconnect link, the fixed-window sampler
// that turns them into bandwidth time series, and the average / 90th
// percentile / peak statistics reported in the paper's Table IV and Table VI.
//
// The paper samples its counters with AMD µProf, nvidia-smi and NIC hardware
// counters; all report aggregate bidirectional traffic per interconnect. We
// mirror that convention: a Counter accumulates bytes into fixed virtual-time
// windows, and Stats are computed over per-window rates.
//
// Counters that record together share one window-major Grid: row w holds
// window w's bytes, one column per bound counter. A network binds a link's
// counter as a column the first time it carries a flow over the link and
// splits each advanced interval into windows once for all of them, so a
// window costs one row allocation however many links it counts. A counter
// that records on its own (NewCounter, then Add) is the one-column case.
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
// virtual time. Its buckets are one column of a Grid, bound on first use. It
// is not safe for concurrent use; the simulation is single-threaded by
// construction.
type Counter struct {
	Name    string
	window  sim.Time
	total   float64
	lastEnd sim.Time // latest time any bytes were recorded up to
	grid    *Grid    // nil until bound; then the counter is column col
	col     int
}

// NewCounter returns an unbound counter with the given sampling window. A
// zero or negative window falls back to DefaultWindow.
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

// Bound reports whether the counter is a column of a grid yet.
func (c *Counter) Bound() bool { return c.grid != nil }

// Add records bytes transferred uniformly over the interval [from, to). Zero
// and point intervals attribute all bytes to the window containing from. An
// unbound counter becomes the one column of its own grid.
func (c *Counter) Add(from, to sim.Time, bytes float64) {
	if to < from {
		panic(fmt.Sprintf("telemetry: inverted interval [%v,%v) on %s", from, to, c.Name))
	}
	if c.grid == nil {
		NewGrid(c.window).Bind(c)
	}
	c.grid.Split(from, to)
	c.Credit(bytes)
}

// Credit records bytes transferred uniformly over the interval of the last
// Split of the counter's grid; the counter must be bound. Each window's
// share is bytes × (the window's part of the interval) / (the interval's
// length), computed in that order, so a bucket sums exactly what
// per-interval arithmetic would have put there.
func (c *Counter) Credit(bytes float64) {
	if bytes < 0 {
		panic(fmt.Sprintf("telemetry: negative bytes %f on %s", bytes, c.Name))
	}
	g := c.grid
	if g.to > c.lastEnd {
		c.lastEnd = g.to
	}
	if bytes == 0 {
		return
	}
	c.total += bytes
	w := g.first
	g.rows[w][c.col] += bytes * g.head / g.span
	if w == g.last {
		return
	}
	whole := float64(g.window)
	for w++; w < g.last; w++ {
		g.rows[w][c.col] += bytes * whole / g.span
	}
	g.rows[w][c.col] += bytes * g.tail / g.span
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
		out[i] = c.bucket(first+i) / wsec
	}
	return Series{Window: c.window, Rates: out}
}

// bucket returns the bytes recorded in window w; a window without a row, or
// whose row predates the counter's column, recorded none.
func (c *Counter) bucket(w int) float64 {
	if g := c.grid; g != nil && w < len(g.rows) && c.col < len(g.rows[w]) {
		return g.rows[w][c.col]
	}
	return 0
}

// Stats computes bandwidth statistics over [0, end).
func (c *Counter) Stats(end sim.Time) Stats { return c.Series(end).Stats() }

// Reset clears all recorded data. A bound counter keeps its column, zeroed in
// every row.
func (c *Counter) Reset() {
	if g := c.grid; g != nil {
		for _, r := range g.rows {
			if c.col < len(r) {
				r[c.col] = 0
			}
		}
	}
	c.total = 0
	c.lastEnd = 0
}

// Grid is the window-major byte table of a set of counters sharing one
// sampling window: row w holds window w's bytes, one column per bound
// counter. A row is allocated the first time its window receives bytes, as
// wide as the columns bound by then; a column bound later widens a row only
// when it records into that row's window. Windows that receive no bytes have
// no row, and a counter never bound has no column.
//
// Recording is split in two: Split divides an interval into windows once
// and makes sure each window's row spans every bound column, then Credit
// apportions one counter's bytes over that split. A network credits every
// link of every flow it advanced over one Split.
type Grid struct {
	window sim.Time
	cols   int
	rows   [][]float64

	// The current split: windows first..last of an interval ending at to,
	// span long. head and tail are the first and last windows' parts of it
	// (head is the whole span when first == last).
	first, last int
	to          sim.Time
	span        float64
	head, tail  float64
}

// NewGrid returns an empty grid. A zero or negative window falls back to
// DefaultWindow.
func NewGrid(window sim.Time) *Grid {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Grid{window: window}
}

// Bind makes c the grid's next column. c must be unbound and sample with
// the grid's window.
func (g *Grid) Bind(c *Counter) {
	if c.grid != nil {
		panic(fmt.Sprintf("telemetry: counter %s is already bound", c.Name))
	}
	if c.window != g.window {
		panic(fmt.Sprintf("telemetry: counter %s samples every %v, grid every %v", c.Name, c.window, g.window))
	}
	c.grid, c.col = g, g.cols
	g.cols++
}

// Split prepares credits over [from, to), from <= to: it computes which
// windows the interval covers and how much of it each holds, and widens each
// covered window's row to every bound column. A point interval (from == to)
// puts everything in the window containing from; its span and head are 1,
// so a credit lands unscaled.
func (g *Grid) Split(from, to sim.Time) {
	g.to = to
	g.first = int(from / g.window)
	if to == from {
		g.last, g.span, g.head = g.first, 1, 1
	} else {
		g.last = int((to - 1) / g.window) // the last window starting before to
		g.span = float64(to - from)
		g.head = float64(min(sim.Time(g.first+1)*g.window, to) - from)
		g.tail = float64(to - sim.Time(g.last)*g.window)
	}
	for w := g.first; w <= g.last; w++ {
		g.widen(w)
	}
}

// widen makes row w span every bound column. Past NewGrid, it is the only
// code that allocates: a new row is made exactly as wide as the bound
// columns, and a row that existed when more columns were bound regrows by
// doubling, so binding k columns into one window copies O(k) slots, not
// O(k·cols).
func (g *Grid) widen(w int) {
	for len(g.rows) <= w {
		g.rows = append(g.rows, nil) //lint:allow steady-alloc — the row index grows once per window of virtual time, doubling as appends do
	}
	r := g.rows[w]
	if len(r) == g.cols {
		return
	}
	if cap(r) < g.cols {
		r = append(make([]float64, 0, max(2*cap(r), g.cols)), r...) //lint:allow steady-alloc — a row is made once per window that receives bytes, and regrows only when a column is bound inside its window
	}
	// Rows only lengthen and Reset zeroes in place, so slots past len(r)
	// have never been written.
	g.rows[w] = r[:g.cols]
}
