package train

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/schedule"
	"llmbw/internal/sim"
	"llmbw/internal/trace"
)

// irCases covers every strategy × offload shape the compiler lowers: the
// comm-queue pipelines (DDP buckets, ZeRO-2 overlap, ZeRO-3 prefetch), pure
// (single- and dual-node) and hybrid model parallelism, the ZeRO-1 chunk
// loop, and the CPU/NVMe offload optimizer phases.
func irCases() []struct {
	name string
	cfg  Config
} {
	g := model.NewGPT(8)
	return []struct {
		name string
		cfg  Config
	}{
		{"ddp", Config{Strategy: DDP, Model: g, Iterations: 2, Warmup: 1}},
		{"ddp-dual", Config{Strategy: DDP, Model: g, Nodes: 2, Iterations: 2, Warmup: 1}},
		{"ddp-ckpt", Config{Strategy: DDP, Model: g, Iterations: 2, Warmup: 1, CheckpointEvery: 1}},
		{"megatron", Config{Strategy: Megatron, Model: g, Iterations: 1, Warmup: 0}},
		{"megatron-dual", Config{Strategy: Megatron, Model: g, Nodes: 2, Iterations: 1, Warmup: 0}},
		{"hybrid-tp4pp2", Config{Strategy: Megatron, Model: g, Nodes: 2,
			TensorParallel: 4, PipelineParallel: 2, Iterations: 1, Warmup: 1}},
		{"zero1", Config{Strategy: ZeRO1, Model: g, Iterations: 2, Warmup: 1}},
		{"zero2-dual", Config{Strategy: ZeRO2, Model: g, Nodes: 2, Iterations: 2, Warmup: 1}},
		{"zero2-cpu", Config{Strategy: ZeRO2, Offload: memory.CPUOffload, Model: g, Iterations: 2, Warmup: 1}},
		{"zero3-dual", Config{Strategy: ZeRO3, Model: g, Nodes: 2, Iterations: 2, Warmup: 1}},
		{"zero3-nvme-opt", Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizer,
			Model: g, Iterations: 1, Warmup: 1}},
		{"zero3-nvme-opt-param", Config{Strategy: ZeRO3, Offload: memory.NVMeOptimizerAndParams,
			Model: g, Iterations: 1, Warmup: 1}},
	}
}

// rankSpans returns one rank's trace spans with the rank field cleared,
// ordered by (start, end, kind, phase). Spans sorts by (rank, start) only and
// unstably, so ties are broken here to give every rank a canonical order.
func rankSpans(tr *trace.Trace, rank int) []trace.Span {
	var out []trace.Span
	for _, s := range tr.Spans() {
		if s.Rank == rank {
			s.Rank = 0
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Phase < b.Phase
	})
	return out
}

var shapesGolden = filepath.Join("testdata", "schedule_shapes.golden")

// renderShape runs cfg and renders its schedule_shapes.golden section: the
// serialized summary, the runtime GPU memory peak and, when cfg.Trace is
// set, rank 0's traced spans (kind, phase, start, end) of the last iteration
// and any checkpoint after it. Ranks run one SPMD program in lockstep and
// every span fans out to all of them, so it also requires every other rank's
// timeline to equal rank 0's.
func renderShape(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s\n", name)
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "peak_gpu_bytes %s\n", strconv.FormatFloat(res.PeakGPUBytes, 'g', -1, 64))
	if res.Trace == nil {
		return buf.Bytes()
	}
	ref := rankSpans(res.Trace, 0)
	fmt.Fprintf(&buf, "rank0_spans %d\n", len(ref))
	for _, s := range ref {
		phase := s.Phase.String()
		if phase == "" {
			phase = "-"
		}
		fmt.Fprintf(&buf, "%s %s %d %d\n", s.Kind, phase, int64(s.Start), int64(s.End))
	}
	for rank := 1; rank < res.Config.WorldSize(); rank++ {
		if got := rankSpans(res.Trace, rank); !slices.Equal(got, ref) {
			t.Errorf("%s: rank %d timeline (%d spans) differs from rank 0's (%d spans)",
				name, rank, len(got), len(ref))
		}
	}
	return buf.Bytes()
}

// goldenShape returns the section schedule_shapes.golden records for the
// named shape, header line included.
func goldenShape(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(shapesGolden)
	if err != nil {
		t.Fatalf("missing golden file (run TestScheduleShapesGolden with -update-golden): %v", err)
	}
	data = append([]byte("\n"), data...)
	at := bytes.Index(data, []byte("\n== "+name+"\n"))
	if at < 0 {
		t.Fatalf("%s records no shape %q", shapesGolden, name)
	}
	section := data[at+1:]
	if end := bytes.Index(section[1:], []byte("\n== ")); end >= 0 {
		section = section[:end+2]
	}
	return section
}

// matchShape fails t at the first line where got departs from the recorded
// section want.
func matchShape(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of section>"
	}
	t.Errorf("%s departs from %s at section line %d: got %q, recorded %q",
		label, shapesGolden, i+1, line(g), line(w))
}

// TestScheduleShapesGolden pins every irCases shape byte for byte, each
// rendered by renderShape from a traced run. Regenerate intentionally with
// `go test ./internal/train -run ScheduleShapesGolden -update-golden`.
func TestScheduleShapesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range irCases() {
		cfg := c.cfg
		cfg.Trace = true
		buf.Write(renderShape(t, c.name, cfg))
	}
	if *updateGolden {
		if err := os.WriteFile(shapesGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shapesGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("schedule shapes drifted from %s.\n--- got ---\n%s", shapesGolden, buf.Bytes())
	}
}

// TestScheduleIRMatchesImperative holds the compiled schedule to the
// imperative coroutine strategies it replaced. The coroutines are retired;
// schedule_shapes.golden was recorded while replay and coroutines agreed on
// every shape — summary, memory peak and spans — so each section is the
// coroutines' output for its shape. Each shape is its own subtest and fails
// at the first line that departs from its section, where
// TestScheduleShapesGolden pins the file as a whole.
func TestScheduleIRMatchesImperative(t *testing.T) {
	for _, c := range irCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Trace = true
			matchShape(t, c.name, renderShape(t, c.name, cfg), goldenShape(t, c.name))
		})
	}
}

// TestSchedulePhaseTags checks the op-tagged trace output: the compiled
// schedule tags every span with its iteration phase, and a traced iteration
// covers the phases the strategy actually has.
func TestSchedulePhaseTags(t *testing.T) {
	cfg := Config{Strategy: ZeRO3, Model: model.NewGPT(8), Nodes: 2,
		Iterations: 1, Warmup: 1, Trace: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range res.Trace.Spans() {
		seen[s.Phase.String()] = true
	}
	if seen[""] {
		t.Error("compiled schedule emitted an untagged span")
	}
	for _, want := range []string{"forward", "backward", "optimizer", "prefetch"} {
		if !seen[want] {
			t.Errorf("traced ZeRO-3 iteration has no %q span (phases seen: %v)", want, seen)
		}
	}
}

// TestBreakdownComponentsSumToIterTime is the per-strategy accounting check:
// over the exact last-iteration window, the ext-breakdown components
// (compute, collectives, offload copies, CPUAdam, NVMe, idle) must sum to
// the iteration time. Component arithmetic is exact integer time by
// construction; the window-vs-IterTime comparison allows the per-iteration
// division remainder.
func TestBreakdownComponentsSumToIterTime(t *testing.T) {
	for _, c := range irCases() {
		if c.cfg.CheckpointEvery > 0 {
			continue // checkpoint time sits between iterations, outside the window
		}
		cfg := c.cfg
		cfg.Trace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := BreakdownOver(res.Trace, res.LastIterStart, res.LastIterEnd)
		sum := b.Compute + b.Collective + b.Offload + b.HostAdam + b.NVMe + b.GPUIdle
		if sum != b.Total {
			t.Errorf("%s: components sum to %v, want Total %v", c.name, sum, b.Total)
		}
		if got, want := b.Total, res.LastIterEnd-res.LastIterStart; got != want {
			t.Errorf("%s: breakdown total %v does not match the iteration window %v", c.name, got, want)
		}
		// IterTime averages the measured iterations with integer division;
		// steady-state iterations are identical, so the last-iteration window
		// may differ only by the division remainder.
		diff := b.Total - res.IterTime
		if diff < 0 {
			diff = -diff
		}
		if diff > sim.Time(res.Iterations) {
			t.Errorf("%s: last-iteration window %v vs IterTime %v (diff %d > %d)",
				c.name, b.Total, res.IterTime, int64(diff), res.Iterations)
		}
	}
}

// TestSerializeCommRewrite checks the schedule rewrite at both levels: the
// transformed program contains no stream ops, and executing it exposes the
// communication the stream schedule was hiding.
func TestSerializeCommRewrite(t *testing.T) {
	base := Config{Strategy: ZeRO3, Model: model.NewGPT(8), Nodes: 2, Iterations: 1, Warmup: 1}

	// Program level: the rewrite must drop every enqueue/wait/barrier and
	// keep the collectives as exposed ops.
	r, err := newRunner(base)
	if err != nil {
		t.Fatal(err)
	}
	count := func(s *schedule.Schedule, k schedule.Kind) int {
		n := 0
		for i := range s.Ops {
			if s.Ops[i].Kind == k {
				n++
			}
		}
		return n
	}
	orig := r.compileIteration()
	enq := count(orig, schedule.OpEnqueue)
	if enq == 0 {
		t.Fatal("ZeRO-3 schedule compiled without stream collectives")
	}
	rw := orig.Apply(RewriteSerializeComm)
	if got := count(rw, schedule.OpEnqueue) + count(rw, schedule.OpWaitSlot) + count(rw, schedule.OpBarrier); got != 0 {
		t.Errorf("serialized schedule retains %d stream ops", got)
	}
	if got, want := count(rw, schedule.OpCollective), count(orig, schedule.OpCollective)+enq; got != want {
		t.Errorf("serialized schedule has %d exposed collectives, want %d", got, want)
	}

	// Execution level: serializing must cost iteration time (the overlap
	// gain).
	overlapped, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	serial := base
	serial.Rewrite = RewriteSerializeComm
	serialized, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if serialized.IterTime <= overlapped.IterTime {
		t.Errorf("serialize-comm iteration %v not slower than overlapped %v",
			serialized.IterTime, overlapped.IterTime)
	}
}

// steadyIterAllocs measures heap allocations per iteration once the schedule
// executor's pools are warm. The huge telemetry window keeps sample-series
// growth out of the measurement.
func steadyIterAllocs(tb testing.TB, cfg Config) float64 {
	cfg.Window = 1 << 40
	r, err := newRunner(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	const measured = 8
	var mallocs uint64
	r.cluster.Eng.Go("alloc-probe", func(p *sim.Proc) {
		r.initializeParameters(p)
		for i := 0; i < 4; i++ {
			r.runIteration(p) // compile the schedule, warm every pool
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			r.runIteration(p)
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	r.cluster.Eng.Run()
	return float64(mallocs) / measured
}

// TestScheduleReplayAllocFree pins the tentpole's zero-allocation claim:
// steady-state schedule replay must not allocate, for the richest pipelines
// the compiler emits.
func TestScheduleReplayAllocFree(t *testing.T) {
	// runtime.MemStats is process-wide: at GOMAXPROCS > 1 the runtime's own
	// work (a sudog for the proc↔engine channel handoff after the goroutine
	// changes Ps, the background scavenger's timer) can land inside the
	// window. Pin it to 1, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := model.NewGPT(8)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ddp", Config{Strategy: DDP, Model: g}},
		{"zero3-dual", Config{Strategy: ZeRO3, Model: g, Nodes: 2}},
		{"hybrid-tp4pp2", Config{Strategy: Megatron, Model: g, Nodes: 2,
			TensorParallel: 4, PipelineParallel: 2}},
		{"zero2-cpu", Config{Strategy: ZeRO2, Offload: memory.CPUOffload, Model: g}},
	} {
		if got := steadyIterAllocs(t, c.cfg); got != 0 {
			t.Errorf("%s: steady-state schedule replay allocates %v allocs/iteration, want 0", c.name, got)
		}
	}
}

// BenchmarkScheduleReplaySteady measures one steady-state training
// iteration end to end (compute spans, stream collectives, fabric flows,
// event core) on a dual-node ZeRO-3 configuration — the strategy with the
// richest schedule. Its allocs/op is pinned at zero by
// TestScheduleReplayAllocFree.
func BenchmarkScheduleReplaySteady(b *testing.B) {
	cfg := Config{Strategy: ZeRO3, Model: model.NewGPT(8), Nodes: 2, Window: 1 << 40}
	r, err := newRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r.cluster.Eng.Go("bench", func(p *sim.Proc) {
		r.initializeParameters(p)
		for i := 0; i < 4; i++ {
			r.runIteration(p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.runIteration(p)
		}
	})
	r.cluster.Eng.Run()
}
