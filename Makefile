GO ?= go

.PHONY: build test race bench bench-lp bench-alloc bench-mac bench-topo bench-sim bench-twin bench-serve

build:
	$(GO) build ./...

test: build
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Micro + macro benchmarks: clique enumeration, event engine, parallel
# sweeps, plus the package-level reference comparisons. Pipe two runs
# through benchstat to quantify a change.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# BENCH_lp.json, BENCH_alloc.json and BENCH_topo.json come from Go
# benchmarks: five runs each, summarized by cmd/benchjson into the
# median (values) and min/max of every reported unit. benchjson fails
# and keeps the old file when a benchmark fails or none ran.

# LP-solver perf trajectory: cold solves on the reusable Solver vs the
# seed reference (ns/op, allocs/op), one refined group solve on the
# dense arrival shape (with its LP solves per refine) and the
# distributed first phase, sequential vs parallel.
bench-lp: build
	$(GO) test -run '^$$' -bench '^Benchmark(LPSolve|LPSolveReference|RefineDenseArrivals|DistributedAllocate)$$' -benchmem -count 5 ./internal/lp ./internal/core . | $(GO) run ./cmd/benchjson BENCH_lp.json

# Sharded allocation-engine perf trajectory: sequential oracle walk vs
# 8-worker sharded fan-out on a 32-component instance, and the
# churn-delta re-solve (solves per churn event must stay ≪ group
# count).
bench-alloc: build
	$(GO) test -run '^$$' -bench '^Benchmark(CentralizedShardedSeq|CentralizedShardedPar|ChurnDelta)$$' -benchmem -count 5 ./internal/core | $(GO) run ./cmd/benchjson BENCH_alloc.json

# MAC/PHY datapath perf trajectory: full-stack simulation rate
# (simSec/s), channel accounting, and steady-state allocations per
# delivered packet (must stay ~0), written to BENCH_mac.json.
bench-mac: build
	$(GO) run ./cmd/benchtables -only mac -json BENCH_mac.json

# Topology-layer perf trajectory: grid vs all-pairs neighbor build at
# 1k/4k nodes, incidence vs pairwise contention build on a 1k-node
# scenario, and incremental vs rebuild mobility epochs (ms/epoch).
bench-topo: build
	$(GO) test -run '^$$' -bench '^Benchmark(TopologyBuild1k|TopologyBuild4k|ContentionBuild|MobilityEpoch)$$' -benchmem -count 5 ./internal/topology ./internal/contention ./internal/mobility | $(GO) run ./cmd/benchjson BENCH_topo.json

# Component-sharded simulator perf trajectory: simSec/s (best of 3) and
# steady-state allocations per delivered packet on the eight-tile
# Figure 6 workload, for the single-engine baseline and 1/4/8-worker
# sharded pools, written to BENCH_sim.json. Delivered-packet counts must
# match across all four rows (byte-identical sharding).
bench-sim: build
	$(GO) run ./cmd/benchtables -only sim -json BENCH_sim.json

# Serving-core perf trajectory: churn events/s for the per-event
# CentralizedDelta baseline vs the batch-coalescing engine at batch
# size 64 (speedup must stay ≥5x), the lock-free snapshot read path
# (ns/op; must stay 0 allocs/op), awaited register latency
# percentiles, and crash-recovery boot time (WAL replay events/s at
# 10k and 100k logged events), written to BENCH_serve.json.
bench-serve: build
	$(GO) run ./cmd/benchtables -only serve -json BENCH_serve.json

# Analytical-twin perf trajectory: prediction error vs the packet
# simulator on the Fig. 6 golden stacks, the cost of one closed-form
# estimate, and the epochs/s speedup of a twin-screened near-static
# mobility sweep (must stay ≥10x over the unscreened baseline), written
# to BENCH_twin.json.
bench-twin: build
	$(GO) run ./cmd/benchtables -only twin -json BENCH_twin.json
