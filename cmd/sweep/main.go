// Command sweep measures attained throughput across model sizes for one
// training configuration — the tool behind the paper's Table V sensitivity
// study.
//
// Usage:
//
//	sweep -strategy zero2 -offload cpu -nodes 1 -sizes 0.7,1.4,2.9,5.2
//	sweep -cpuprofile sweep.prof -strategy zero3 -topo fat-tree:nodes=256 -algo 2level
//	sweep -memprofile sweep-mem.prof -strategy zero3 -topo fat-tree:nodes=256 -algo 2level
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/report"
	"llmbw/internal/runner"
	"llmbw/internal/train"
)

var strategies = map[string]train.Strategy{
	"ddp": train.DDP, "megatron": train.Megatron,
	"zero1": train.ZeRO1, "zero2": train.ZeRO2, "zero3": train.ZeRO3,
}

var offloads = map[string]memory.Offload{
	"none": memory.NoOffload, "cpu": memory.CPUOffload,
	"nvme-opt": memory.NVMeOptimizer, "nvme-opt+param": memory.NVMeOptimizerAndParams,
}

func main() {
	strategy := flag.String("strategy", "zero2", "ddp | megatron | zero1 | zero2 | zero3")
	offload := flag.String("offload", "none", "none | cpu | nvme-opt | nvme-opt+param")
	nodes := flag.Int("nodes", 1, "compute nodes (1 or 2)")
	sizesArg := flag.String("sizes", "0.7,1.4,2.9,4.4,5.2", "comma-separated model sizes in billions; 'max' appends the largest fit")
	iterations := flag.Int("iterations", 3, "measured iterations per point")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON summaries instead of a table")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep points to simulate concurrently; 1 runs serially")
	shards := flag.Int("shards", 0, "simulation shards per sweep point, clamped to the fabric's partitions: 1 on the testbed, up to the pod count on a generated fabric")
	topo := flag.String("topo", "", `generated fabric spec, e.g. "fat-tree:nodes=16" (default: the paper testbed)`)
	algo := flag.String("algo", "", "collective algorithm on generated fabrics: flat | 2level | multiring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof format)")
	memprofile := flag.String("memprofile", "", "write the allocs profile of the sweep to this file after it ends (go tool pprof format)")
	flag.Parse()
	*parallel = runner.ClampParallel(*parallel)
	*shards = runner.ClampParallel(*shards)
	nodesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "nodes" {
			nodesSet = true
		}
	})

	strat, ok := strategies[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	off, ok := offloads[*offload]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown offload %q\n", *offload)
		os.Exit(2)
	}
	base := train.Config{Strategy: strat, Offload: off, Nodes: *nodes, Iterations: *iterations, Warmup: 1, Shards: *shards}
	if err := applyTopo(&base, *topo, *algo, nodesSet); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	// Every error but a model that does not fit is independent of the size,
	// so one check on a one-layer model reports it before any point is
	// simulated, whether or not any size fits.
	probe := base
	probe.Model = model.NewGPT(1)
	if err := probe.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	maxLayers := base.Profile().MaxLayers(model.DefaultBatchSize, 4)
	if maxLayers == 0 {
		fmt.Fprintln(os.Stderr, "sweep: configuration fits no model at all")
		os.Exit(1)
	}

	layerCounts, err := model.ParseSizes(*sizesArg, maxLayers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memprofile != "" {
		write, err := startMemProfile(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		defer write()
	}

	// On a generated fabric the node count lives in base.Name()'s topo spec;
	// repeating the unused -nodes default would mislead.
	nodesLabel := fmt.Sprintf(", nodes=%d", *nodes)
	if base.Topo != "" && !nodesSet {
		nodesLabel = ""
	}
	t := report.NewTable(
		fmt.Sprintf("Throughput vs model size — %s, offload=%s%s", base.Name(), *offload, nodesLabel),
		"layers", "size (B)", "iteration", "TFLOP/s")
	// Every sweep point owns a private simulation, so points run on a worker
	// pool; rows are assembled in order afterwards, so the rendered table is
	// identical to a serial sweep.
	points := make([]*train.Result, len(layerCounts))
	err = runner.Map(*parallel, len(layerCounts), func(i int) error {
		l := layerCounts[i]
		if l > maxLayers {
			return nil
		}
		cfg := base
		cfg.Model = model.NewGPT(l)
		res, err := train.RunCached(cfg)
		if err != nil {
			return err
		}
		points[i] = res
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	var results []*train.Result
	for i, l := range layerCounts {
		if l > maxLayers {
			t.Row(l, model.NewGPT(l).ParamsB(), "does not fit", "-")
			continue
		}
		res := points[i]
		results = append(results, res)
		t.Row(l, res.Config.Model.ParamsB(), res.IterTime.String(), res.AttainedTFLOPs)
	}
	if *jsonOut {
		if err := train.WriteSummariesJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}
	t.Render(os.Stdout)
	fmt.Printf("maximum fit: %d layers (%.2fB params)\n", maxLayers, model.NewGPT(maxLayers).ParamsB())
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
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}, nil
}

// startMemProfile creates path, so a bad path fails before the sweep, and
// returns the function that writes the allocs profile (every allocation
// sampled since the process started) into it and closes the file.
func startMemProfile(path string) (write func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return func() {
		runtime.GC() // the profile counts allocations up to the last completed GC
		err := pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}, nil
}

// applyTopo points the sweep at a generated datacenter fabric. The spec's
// node count wins unless -nodes was given explicitly (train.Config then
// verifies the two agree). -algo without -topo is an error here; the spec
// and the algorithm are checked with the rest of the configuration.
func applyTopo(base *train.Config, topo, algo string, nodesSet bool) error {
	if topo == "" {
		if algo != "" {
			return fmt.Errorf("-algo requires -topo (the paper testbed has fixed collectives)")
		}
		return nil
	}
	base.Topo = topo
	base.Algo = algo
	if !nodesSet {
		base.Nodes = 0 // adopt the spec's node count
	}
	return nil
}
