GO ?= go
# FUZZTIME bounds each fuzz target in fuzz-smoke; CI's nightly job raises it.
FUZZTIME ?= 10s

.PHONY: check test build vet fmt lint lint-baseline lint-report race fuzz-smoke bench serve-smoke clean

## check: the full correctness gate — gofmt, vet, build, the simlint
## determinism & invariant analysis, the race-enabled test suite, and a short
## fuzz smoke of the fabric fair-share property suite and the -topo parser.
check: fmt vet build lint race fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt: fail when any Go file outside _bench/ is not gofmt-clean.
fmt:
	@out=$$(gofmt -l cmd internal examples *.go); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: run the repository's static determinism/invariant analysis
## (includes the inter-procedural handle-release / capepoch-guard /
## steady-alloc / lookahead-positive rules).
lint:
	$(GO) run ./cmd/simlint ./...

## lint-baseline: fail on any drift from the committed lint.baseline.json —
## new findings AND stale pinned entries both count as drift.
lint-baseline:
	$(GO) run ./cmd/simlint -baseline lint.baseline.json ./...

## lint-report: write the machine-readable findings report CI archives next
## to the benchmark JSON. Never fails on findings — lint-baseline gates.
lint-report:
	$(GO) run ./cmd/simlint -json ./... > SIMLINT.json || true

test:
	$(GO) test ./...

## race: the whole test suite under the race detector (the PR-1 parallel
## runner and the train run-cache are the concurrency hot spots).
race:
	$(GO) test -race ./...

## fuzz-smoke: run every fuzz target in internal/fabric and internal/topology
## for FUZZTIME each.
fuzz-smoke:
	@set -e; for pkg in ./internal/fabric ./internal/topology; do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$f for $(FUZZTIME)"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench: run the hot-path benchmarks and record machine-readable results —
## the substrate micro-benchmarks in BENCH_fabric.json, the repeated-
## collective plan-replay macro-benchmark in BENCH_collective.json, the
## compiled-schedule iteration replay benchmark (pinned at zero steady-state
## allocations) and the datacenter training run (ZeRO-3, 2-level, 256-node
## fat-tree at 1 and 2 shards) in BENCH_train.json,
## and the sharded-engine serial-vs-parallel steady-state scaling grid
## (1/2/4 shards at 2/8/16 nodes of a one-node-pod fat-tree) together with
## the event core's same-instant burst benchmark (zero-delay bursts beside a
## ~1k-entry heap, pinned at 0 allocs/op) in BENCH_sim.json, and the
## datacenter-collective grid (flat on 1 shard,
## 2-level and multi-ring on 1/4/8 shards, × 16/64/256 nodes, with
## allocs/op pinning the zero-alloc replay) in BENCH_topo.json, and the
## serving-layer cold-vs-warm request benchmark (cache miss re-simulates a
## 64-node fat-tree; cache hit replays the memoized result, with the warm
## probe pinned at 0 allocs/op) together with the inference decode-step
## replay benchmark (ServeDecodeSteady, the serving layer's zero-alloc
## steady loop) in BENCH_serve.json.
bench:
	$(GO) test -run '^$$' -bench 'FabricFairShare|SimEngineEvents|CollectiveAllReduce' -benchmem -json . > BENCH_fabric.json
	$(GO) test -run '^$$' -bench 'CollectiveReplaySteady' -benchmem -json . > BENCH_collective.json
	$(GO) test -run '^$$' -bench 'ScheduleReplaySteady|DCTrain' -benchmem -json ./internal/train > BENCH_train.json
	$(GO) test -run '^$$' -bench 'ShardedEngineSteady|SimEngineSameInstant' -benchmem -json ./internal/sim > BENCH_sim.json
	$(GO) test -run '^$$' -bench 'HierarchicalAllReduce' -benchmem -json ./internal/collective > BENCH_topo.json
	$(GO) test -run '^$$' -bench 'ServeColdRun|ServeWarmRun|ServeWarmSweep|ScenarioCacheWarmGet|ServeDecodeSteady' -benchmem -json ./cmd/servesim ./internal/scenario ./internal/serve > BENCH_serve.json
	@grep -oh '"Output":"Benchmark[^"]*' BENCH_fabric.json BENCH_collective.json BENCH_train.json BENCH_sim.json BENCH_topo.json BENCH_serve.json | grep -o 'Benchmark[A-Za-z]*' | sort -u

## serve-smoke: boot the servesim daemon, issue one query, probe /stats, and
## shut it down — the same liveness check CI runs.
serve-smoke: build
	./scripts/serve_smoke.sh

clean:
	rm -f BENCH_fabric.json BENCH_collective.json BENCH_train.json BENCH_sim.json BENCH_topo.json BENCH_serve.json SIMLINT.json
