// Package trace records per-GPU execution timelines, the simulator's
// equivalent of the paper's NVIDIA Nsight Systems characterization (Fig 5):
// which kernel class each GPU is running at each instant of an iteration —
// GEMM, element-wise, weight update, NCCL collectives, offload data movement,
// CPU optimizer compute and NVMe I/O 'while the GPUs sit idle'.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"llmbw/internal/sim"
)

// Kind classifies a timeline span, mirroring the kernel classes in Fig 5.
type Kind int

// Span kinds.
const (
	Gemm Kind = iota
	Elementwise
	WeightUpdate
	NCCLAllReduce
	NCCLAllGather
	NCCLReduceScatter
	NCCLReduce
	NCCLBroadcast
	OffloadCopy // PCIe transfers between GPU and CPU memory
	CPUAdam     // host-side optimizer (GPU idle)
	NVMeIO      // NVMe staging (GPU idle)
)

var kindInfo = []struct {
	name string
	char byte
	gpu  bool // occupies the GPU
}{
	{"GEMM", 'G', true},
	{"Elementwise", 'e', true},
	{"WeightUpdate", 'U', true},
	{"AllReduce", 'A', true},
	{"AllGather", 'g', true},
	{"ReduceScatter", 'r', true},
	{"Reduce", 'R', true},
	{"Broadcast", 'B', true},
	{"OffloadCopy", 'o', false},
	{"CPUAdam", 'c', false},
	{"NVMeIO", 'n', false},
}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Char returns the single-character timeline glyph.
func (k Kind) Char() byte {
	if int(k) < len(kindInfo) {
		return kindInfo[k].char
	}
	return '?'
}

// OccupiesGPU reports whether this span counts as GPU-busy time.
func (k Kind) OccupiesGPU() bool {
	return int(k) < len(kindInfo) && kindInfo[k].gpu
}

// Class groups kinds into the breakdown buckets of the Fig 5 discussion:
// GPU compute, NCCL collectives, offload staging copies, host optimizer
// compute and NVMe I/O. It is the single classification both the breakdown
// attribution and schedule-IR op tagging share.
type Class int

// Breakdown classes in display order.
const (
	ClassCompute Class = iota
	ClassCollective
	ClassOffload
	ClassHostAdam
	ClassNVMe
	// ClassCount sizes per-class accumulators.
	ClassCount
)

// Class returns the breakdown class of the kind.
func (k Kind) Class() Class {
	switch k {
	case Gemm, Elementwise, WeightUpdate:
		return ClassCompute
	case NCCLAllReduce, NCCLAllGather, NCCLReduceScatter, NCCLReduce, NCCLBroadcast:
		return ClassCollective
	case OffloadCopy:
		return ClassOffload
	case CPUAdam:
		return ClassHostAdam
	case NVMeIO:
		return ClassNVMe
	}
	return ClassCompute
}

// Phase tags a span with the iteration phase of the schedule op that emitted
// it. The schedule IR tags every op, so exported traces can be filtered by
// phase; spans recorded outside a compiled schedule (training start-up and
// checkpoint writes) carry PhaseNone. Phase never affects rendering,
// summaries or breakdowns — adding it is golden-safe.
type Phase uint8

// Iteration phases.
const (
	PhaseNone Phase = iota
	PhaseData
	PhaseForward
	PhaseBackward
	PhaseOptimizer
	PhasePrefetch
	// Serving phases (internal/serve): the prompt pass and the token
	// generation loop of an inference request.
	PhasePrefill
	PhaseDecode
)

// String returns the phase label used in exported traces.
func (p Phase) String() string {
	switch p {
	case PhaseData:
		return "data"
	case PhaseForward:
		return "forward"
	case PhaseBackward:
		return "backward"
	case PhaseOptimizer:
		return "optimizer"
	case PhasePrefetch:
		return "prefetch"
	case PhasePrefill:
		return "prefill"
	case PhaseDecode:
		return "decode"
	}
	return ""
}

// Span is one interval of activity on a rank's timeline.
type Span struct {
	Rank  int
	Kind  Kind
	Phase Phase
	Start sim.Time
	End   sim.Time
}

// Duration returns End-Start.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Trace accumulates spans. The zero value discards everything; create an
// active trace with New.
type Trace struct {
	enabled bool
	spans   []Span
}

// New returns an enabled trace.
func New() *Trace { return &Trace{enabled: true} }

// Enabled reports whether the trace records.
func (t *Trace) Enabled() bool { return t != nil && t.enabled }

// Add records a span (no-op on a nil/disabled trace).
func (t *Trace) Add(rank int, kind Kind, start, end sim.Time) {
	t.AddPhased(rank, kind, PhaseNone, start, end)
}

// AddPhased records a span carrying an iteration phase tag.
func (t *Trace) AddPhased(rank int, kind Kind, phase Phase, start, end sim.Time) {
	if !t.Enabled() || end <= start {
		return
	}
	t.spans = append(t.spans, Span{Rank: rank, Kind: kind, Phase: phase, Start: start, End: end})
}

// Spans returns all recorded spans sorted by (rank, start).
func (t *Trace) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Window returns the [min start, max end] covered by the trace.
func (t *Trace) Window() (sim.Time, sim.Time) {
	if len(t.spans) == 0 {
		return 0, 0
	}
	lo, hi := t.spans[0].Start, t.spans[0].End
	for _, s := range t.spans {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return lo, hi
}

// Summary aggregates busy time per kind for one rank, plus GPU idle time,
// over the trace window — the quantities the Fig 5 discussion compares.
type Summary struct {
	Rank    int
	Total   sim.Time
	PerKind map[Kind]sim.Time
	GPUIdle sim.Time
}

// Summarize computes the per-kind occupancy for a rank.
func (t *Trace) Summarize(rank int) Summary {
	lo, hi := t.Window()
	s := Summary{Rank: rank, Total: hi - lo, PerKind: make(map[Kind]sim.Time)}
	var busy sim.Time
	for _, sp := range t.spans {
		if sp.Rank != rank {
			continue
		}
		s.PerKind[sp.Kind] += sp.Duration()
		if sp.Kind.OccupiesGPU() {
			busy += sp.Duration()
		}
	}
	s.GPUIdle = s.Total - busy
	if s.GPUIdle < 0 {
		s.GPUIdle = 0 // overlapping spans can over-count busy time
	}
	return s
}

// Render draws a rank's lane as a fixed-width character strip; '.' is GPU
// idle. Later spans overwrite earlier ones in each cell, which matches how a
// dense profiler view paints overlapping streams.
func (t *Trace) Render(rank, width int) string {
	lo, hi := t.Window()
	if hi <= lo || width <= 0 {
		return ""
	}
	lane := make([]byte, width)
	for i := range lane {
		lane[i] = '.'
	}
	scale := float64(width) / float64(hi-lo)
	for _, sp := range t.spans {
		if sp.Rank != rank {
			continue
		}
		a := int(float64(sp.Start-lo) * scale)
		b := int(float64(sp.End-lo) * scale)
		if b <= a {
			b = a + 1
		}
		if b > width {
			b = width
		}
		for i := a; i < b; i++ {
			lane[i] = sp.Kind.Char()
		}
	}
	return string(lane)
}

// Legend returns the glyph legend for rendered lanes.
func Legend() string {
	var b strings.Builder
	for k := range kindInfo {
		if k > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%c=%s", kindInfo[k].char, kindInfo[k].name)
	}
	b.WriteString("  .=idle")
	return b.String()
}
