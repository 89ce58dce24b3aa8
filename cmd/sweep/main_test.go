package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"llmbw/internal/model"
	"llmbw/internal/runner"
	"llmbw/internal/train"
)

// TestParseSizesOrderStable: the sweep's serialized table renders rows in
// layerCounts order, so parsing must preserve the argument order exactly —
// part of the ordered-map-emit audit of this command (its lookup maps are
// only ever indexed, never ranged). The parser itself lives in
// internal/model (shared with cmd/servesim); this pins the contract at the
// sweep call site.
func TestParseSizesOrderStable(t *testing.T) {
	got, err := model.ParseSizes("1.4, 0.7,max,,2.9", 99)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{
		model.LayersForParams(int64(1.4e9)),
		model.LayersForParams(int64(0.7e9)),
		99,
		model.LayersForParams(int64(2.9e9)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseSizes = %v, want %v", got, want)
	}
	// Parsing twice yields identical slices (no hidden map state).
	again, err := model.ParseSizes("1.4, 0.7,max,,2.9", 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Errorf("parseSizes not stable: %v vs %v", got, again)
	}
}

func TestParseSizesRejectsGarbage(t *testing.T) {
	if _, err := model.ParseSizes("1.4,banana", 10); err == nil {
		t.Fatal("expected error for non-numeric size")
	}
}

// TestParallelFlagClamped: `-parallel 0` and negative values mean "no
// concurrency", not "GOMAXPROCS workers" — they must clamp to serial before
// reaching the worker pool.
func TestParallelFlagClamped(t *testing.T) {
	for flagValue, want := range map[int]int{-4: 1, -1: 1, 0: 1, 1: 1, 8: 8} {
		if got := runner.ClampParallel(flagValue); got != want {
			t.Errorf("ClampParallel(%d) = %d, want %d", flagValue, got, want)
		}
	}
}

// TestShardsFlagClamped pins the -shards contract: the flag clamps through
// the same runner.ClampParallel mapping as -parallel, so the default and any
// explicit <= 0 land at 1 — which train.Config treats as the plain serial
// engine — and the clamped value reaches the sweep's base Config unchanged.
func TestShardsFlagClamped(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, 1}, // default: serial simulation
		{[]string{"-shards", "-3"}, 1},
		{[]string{"-shards", "0"}, 1},
		{[]string{"-shards", "1"}, 1},
		{[]string{"-shards", "4"}, 4},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		shards := fs.Int("shards", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		clamped := runner.ClampParallel(*shards)
		if clamped != tc.want {
			t.Errorf("args %v clamp to %d shards, want %d", tc.args, clamped, tc.want)
		}
		base := train.Config{Strategy: train.DDP, Model: model.NewGPT(4), Shards: clamped}
		if err := base.Validate(); err != nil {
			t.Errorf("clamped shards %d rejected by train.Config: %v", clamped, err)
		}
	}
}

// TestFlagLookupTablesCovered keeps the usage strings honest: every strategy
// and offload the flags document must resolve through the lookup maps.
func TestFlagLookupTablesCovered(t *testing.T) {
	for _, s := range []string{"ddp", "megatron", "zero1", "zero2", "zero3"} {
		if _, ok := strategies[s]; !ok {
			t.Errorf("strategy %q missing from lookup map", s)
		}
	}
	for _, o := range []string{"none", "cpu", "nvme-opt", "nvme-opt+param"} {
		if _, ok := offloads[o]; !ok {
			t.Errorf("offload %q missing from lookup map", o)
		}
	}
}

// TestApplyTopo pins the -topo/-algo flag contract: the spec's node count
// wins unless -nodes was explicit, and -algo alone is rejected up front.
func TestApplyTopo(t *testing.T) {
	base := train.Config{Strategy: train.ZeRO3, Nodes: 1}
	if err := applyTopo(&base, "fat-tree:nodes=16", "2level", false); err != nil {
		t.Fatal(err)
	}
	if base.Nodes != 0 || base.Topo != "fat-tree:nodes=16" || base.Algo != "2level" {
		t.Errorf("applyTopo left %+v", base)
	}
	base.Model = model.NewGPT(8)
	base.Iterations = 1
	if err := base.Validate(); err != nil {
		t.Errorf("topo sweep base config rejected: %v", err)
	}

	explicit := train.Config{Strategy: train.ZeRO3, Nodes: 16}
	if err := applyTopo(&explicit, "fat-tree:nodes=16", "", true); err != nil {
		t.Fatal(err)
	}
	if explicit.Nodes != 16 {
		t.Errorf("explicit -nodes overwritten to %d", explicit.Nodes)
	}

	plain := train.Config{Strategy: train.DDP, Nodes: 1}
	if err := applyTopo(&plain, "", "2level", false); err == nil {
		t.Error("-algo without -topo accepted")
	}
}

// TestMain lets a test run this binary as the sweep command: with LLMBW_RUN_SWEEP
// set, the process runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("LLMBW_RUN_SWEEP") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs sweep with args in a child process and returns its stdout.
func runSweep(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LLMBW_RUN_SWEEP=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestCPUProfileFlag: -cpuprofile writes a non-empty profile and leaves
// stdout byte-identical to the same run without it.
func TestCPUProfileFlag(t *testing.T) { checkProfileFlag(t, "-cpuprofile") }

// TestMemProfileFlag: -memprofile writes a non-empty allocs profile after
// the run and leaves stdout byte-identical to the same run without it.
func TestMemProfileFlag(t *testing.T) { checkProfileFlag(t, "-memprofile") }

func checkProfileFlag(t *testing.T, flag string) {
	args := []string{"-parallel", "1", "-iterations", "1", "-strategy", "zero3", "-topo", "fat-tree:nodes=16", "-algo", "2level", "-sizes", "1"}
	plain := runSweep(t, args...)
	path := filepath.Join(t.TempDir(), "out.prof")
	profiled := runSweep(t, append([]string{flag, path}, args...)...)
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Errorf("stdout with %s differs from the plain run:\n%s\nvs\n%s", flag, profiled, plain)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("%s file %s missing or empty: %v", flag, path, err)
	}
}
