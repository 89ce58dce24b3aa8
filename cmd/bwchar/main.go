// Command bwchar regenerates the paper's tables and figures on the simulated
// cluster. Run it with experiment ids (fig1..fig14, table1..table6), "all"
// for the complete paper evaluation, or "all-ext" to additionally run the
// extension and ablation studies.
//
// Usage:
//
//	bwchar -list
//	bwchar fig7 table4
//	bwchar -iterations 5 -pattern-seconds 60 all
//	bwchar -parallel 4 all-ext
//	bwchar -cpuprofile bwchar.prof all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"llmbw/internal/core"
	"llmbw/internal/runner"
)

const usageLine = "usage: bwchar [-list] [flags] <experiment-id>... | all | all-ext"

// resolveExperiments maps command-line ids to experiments: "all" selects the
// paper reproductions, "all-ext" additionally the extensions and ablations,
// and otherwise each id resolves via core.Get, so an unknown id fails before
// any simulation starts.
func resolveExperiments(args []string) ([]core.Experiment, error) {
	if len(args) == 1 && (args[0] == "all" || args[0] == "all-ext") {
		exps := core.Experiments()
		if args[0] == "all-ext" {
			exps = append(exps, core.Extensions()...)
		}
		return exps, nil
	}
	exps := make([]core.Experiment, 0, len(args))
	for _, id := range args {
		e, err := core.Get(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	return exps, nil
}

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	iterations := flag.Int("iterations", 3, "measured training iterations per run")
	warmup := flag.Int("warmup", 1, "warm-up iterations before measurement")
	patternSeconds := flag.Float64("pattern-seconds", 30, "simulated duration of utilization-pattern figures")
	stressSeconds := flag.Float64("stress-seconds", 10, "simulated duration of bandwidth stress kernels")
	artifacts := flag.String("artifacts", "", "directory for machine-readable artifacts (Chrome traces, CSV series)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently; 1 runs serially")
	shards := flag.Int("shards", 0, "simulation shards per training run; <=1 runs each simulation serially")
	topo := flag.String("topo", "", `extra fabric spec for the datacenter studies, e.g. "fat-tree:nodes=32"`)
	algo := flag.String("algo", "", "collective algorithm for the datacenter studies: flat | 2level | multiring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	flag.Parse()
	*parallel = runner.ClampParallel(*parallel)
	*shards = runner.ClampParallel(*shards)

	if *list {
		fmt.Println("paper reproductions:")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		fmt.Println("extensions and ablations:")
		for _, e := range core.Extensions() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usageLine)
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bwchar:", err)
			os.Exit(1)
		}
	}
	opt := core.Options{
		Iterations:     *iterations,
		Warmup:         *warmup,
		PatternSeconds: *patternSeconds,
		StressSeconds:  *stressSeconds,
		ArtifactsDir:   *artifacts,
		Shards:         *shards,
		Topo:           *topo,
		Algo:           *algo,
	}

	// Resolve the experiment list up front so an unknown id fails before any
	// simulation starts.
	exps, err := resolveExperiments(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwchar:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bwchar:", err)
			os.Exit(1)
		}
		defer stop()
	}

	// Each experiment owns a private simulation engine, so they run on a
	// worker pool; the runner flushes outputs in submission order, so the
	// bytes match a serial run exactly regardless of -parallel.
	jobs := make([]runner.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = runner.Job{ID: e.ID, Run: func(w io.Writer) error {
			fmt.Fprintf(w, "\n######## %s — %s ########\n", e.ID, e.Title)
			if err := e.Run(w, opt); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			return nil
		}}
	}
	if err := runner.Run(os.Stdout, *parallel, jobs); err != nil {
		fmt.Fprintln(os.Stderr, "bwchar:", err)
		os.Exit(1)
	}
}

// startCPUProfile starts writing a CPU profile to path and returns the
// function that stops the profile and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bwchar:", err)
		}
	}, nil
}
