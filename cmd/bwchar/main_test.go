package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"llmbw/internal/core"
	"llmbw/internal/runner"
)

// TestResolveExperiments pins the command-line contract: "all" is exactly the
// paper reproductions, "all-ext" appends the extension studies, explicit ids
// resolve individually in argument order, and an unknown id errors before any
// experiment would run.
func TestResolveExperiments(t *testing.T) {
	paper, ext := core.Experiments(), core.Extensions()

	all, err := resolveExperiments([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(paper) {
		t.Errorf("resolveExperiments(all) returned %d experiments, want %d", len(all), len(paper))
	}

	allExt, err := resolveExperiments([]string{"all-ext"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(paper) + len(ext); len(allExt) != want {
		t.Errorf("resolveExperiments(all-ext) returned %d experiments, want %d", len(allExt), want)
	}
	for i, e := range ext {
		if got := allExt[len(paper)+i].ID; got != e.ID {
			t.Errorf("all-ext experiment %d = %s, want extension %s", len(paper)+i, got, e.ID)
		}
	}

	ids := []string{paper[1].ID, paper[0].ID}
	picked, err := resolveExperiments(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].ID != ids[0] || picked[1].ID != ids[1] {
		t.Errorf("resolveExperiments(%v) = %v, want the ids in argument order", ids, picked)
	}

	if _, err := resolveExperiments([]string{"no-such-experiment"}); err == nil {
		t.Error("resolveExperiments(no-such-experiment) did not fail")
	}
}

// TestParallelFlagClamped: `-parallel 0` and negative values used to reach
// runner.Run raw, where parallel <= 0 selects GOMAXPROCS workers — the
// opposite of what an explicit zero asks for. The flag value must clamp to
// serial first.
func TestParallelFlagClamped(t *testing.T) {
	for flagValue, want := range map[int]int{-4: 1, -1: 1, 0: 1, 1: 1, 8: 8} {
		if got := runner.ClampParallel(flagValue); got != want {
			t.Errorf("ClampParallel(%d) = %d, want %d", flagValue, got, want)
		}
	}
}

// TestShardsFlagClamped pins the -shards contract: the flag parses like
// -parallel and clamps through the same runner.ClampParallel mapping, so an
// explicit or default <= 0 lands at 1 — which train.Config treats as the
// plain serial engine — and positive counts pass through.
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
		fs := flag.NewFlagSet("bwchar", flag.ContinueOnError)
		shards := fs.Int("shards", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := runner.ClampParallel(*shards); got != tc.want {
			t.Errorf("args %v clamp to %d shards, want %d", tc.args, got, tc.want)
		}
	}
}

// TestClampedSerialRunsJobs: a clamped flag value drives the pool exactly
// like an explicit -parallel 1 — every job runs and output appears in
// submission order.
func TestClampedSerialRunsJobs(t *testing.T) {
	var out bytes.Buffer
	jobs := make([]runner.Job, 3)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job{
			ID:  fmt.Sprintf("job%d", i),
			Run: func(w io.Writer) error { _, err := fmt.Fprintf(w, "job%d\n", i); return err },
		}
	}
	if err := runner.Run(&out, runner.ClampParallel(0), jobs); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "job0\njob1\njob2\n"; got != want {
		t.Errorf("serial clamped run wrote %q, want %q", got, want)
	}
}

// TestMain lets a test run this binary as the bwchar command: with LLMBW_RUN_BWCHAR
// set, the process runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("LLMBW_RUN_BWCHAR") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBwchar runs bwchar with args in a child process and returns its stdout.
func runBwchar(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LLMBW_RUN_BWCHAR=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bwchar %v: %v\n%s", args, err, stderr.Bytes())
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
	args := []string{"-parallel", "1", "-iterations", "1", "fig3"}
	plain := runBwchar(t, args...)
	path := filepath.Join(t.TempDir(), "out.prof")
	profiled := runBwchar(t, append([]string{flag, path}, args...)...)
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Errorf("stdout with %s differs from the plain run:\n%s\nvs\n%s", flag, profiled, plain)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("%s file %s missing or empty: %v", flag, path, err)
	}
}
