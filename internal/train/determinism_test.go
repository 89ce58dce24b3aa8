package train

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/model"
)

// TestSummaryJSONByteStable runs the identical configuration on two fresh
// simulated clusters and requires byte-identical serialized summaries: the
// regression test for the ordered-map-emit audit of summary.go (the
// BandwidthGBps map serializes through encoding/json, whose sorted-key
// contract this locks in) and runner.go (Stats/Series are filled and read in
// fabric.MeasuredClasses order).
func TestSummaryJSONByteStable(t *testing.T) {
	cfg := Config{Strategy: ZeRO1, Model: model.NewGPT(8), Iterations: 1, Warmup: 0}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("summaries of identical runs differ:\n%s\n----\n%s", bufs[0].Bytes(), bufs[1].Bytes())
	}

	// The serialized interconnect keys must come out sorted — the property
	// that makes a map-valued field safe to emit at all.
	var s struct {
		BW map[string][3]float64 `json:"bandwidth_gbps"`
	}
	if err := json.Unmarshal(bufs[0].Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.BW) != len(fabric.MeasuredClasses()) {
		t.Errorf("bandwidth map has %d keys, want %d", len(s.BW), len(fabric.MeasuredClasses()))
	}
	names := make([]string, 0, len(s.BW))
	for name := range s.BW {
		names = append(names, name)
	}
	sort.Strings(names)
	last := -1
	for _, name := range names {
		at := bytes.Index(bufs[0].Bytes(), []byte(`"`+name+`"`))
		if at < 0 {
			t.Fatalf("class %s missing from summary JSON:\n%s", name, bufs[0].String())
		}
		if at < last {
			t.Errorf("class %s serialized out of sorted order", name)
		}
		last = at
	}
}

// TestFastPathsMatchLegacyPaths holds the performance machinery — compiled
// collective plans, batched flow admission and compiled schedule replay — to
// the rebuild-per-issue, per-flow-admission and imperative-coroutine paths it
// replaced. Those paths are retired; schedule_shapes.golden was recorded
// while every combination of fast and retired paths serialized these three
// configurations identically, so each section's summary and memory peak are
// theirs. The runs are untraced, as every CLI run is, while the golden's own
// tests run traced. Strategies cover the comm-queue pipelines (ZeRO-3),
// fused dual-ring collectives (DDP) and the hybrid-parallel boundary
// exchange (Megatron).
func TestFastPathsMatchLegacyPaths(t *testing.T) {
	g := model.NewGPT(8)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ddp", Config{Strategy: DDP, Model: g, Iterations: 2, Warmup: 1}},
		{"megatron-dual", Config{Strategy: Megatron, Model: g, Iterations: 1, Warmup: 0, Nodes: 2}},
		{"zero3-dual", Config{Strategy: ZeRO3, Model: g, Iterations: 2, Warmup: 1, Nodes: 2}},
	} {
		want := goldenShape(t, c.name)
		want = want[:bytes.Index(want, []byte("rank0_spans "))]
		matchShape(t, c.name+" untraced", renderShape(t, c.name, c.cfg), want)
	}
}

// TestResultStatsCoverMeasuredClasses pins the key set of the Result.Stats /
// Result.Series maps to fabric.MeasuredClasses: every consumer iterates that
// fixed paper-order slice, so a key outside it would be silently invisible
// in reports.
func TestResultStatsCoverMeasuredClasses(t *testing.T) {
	res, err := Run(Config{Strategy: DDP, Model: model.NewGPT(8), Iterations: 1, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := fabric.MeasuredClasses()
	if len(res.Stats) != len(want) || len(res.Series) != len(want) {
		t.Fatalf("stats/series key counts = %d/%d, want %d", len(res.Stats), len(res.Series), len(want))
	}
	for _, class := range want {
		if _, ok := res.Stats[class]; !ok {
			t.Errorf("Stats missing class %s", class)
		}
		if _, ok := res.Series[class]; !ok {
			t.Errorf("Series missing class %s", class)
		}
	}
}
