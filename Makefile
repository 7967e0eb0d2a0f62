GO ?= go

.PHONY: build test race bench bench-lp bench-alloc bench-mac bench-topo bench-sim bench-serve

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

# Every BENCH_*.json comes from Go benchmarks: five runs each,
# summarized by cmd/benchjson into the median (values) and min/max of
# every reported unit. benchjson fails and keeps the old file when a
# benchmark fails or none ran. bench-lp and bench-alloc also gate with
# -compare against the committed file: a median of allocs/op or of a
# work count (LP solves, pivots, solves per event) outside the file's
# [min, max] fails the target and keeps the file. To record a
# deliberate change of those counts, pipe the same go test command into
# `go run ./cmd/benchjson BENCH_x.json`, without -compare.

# LP-solver perf trajectory: cold solves on the reusable Solver vs the
# seed reference (ns/op, allocs/op), one refined group solve on the
# dense arrival shape (with its LP solves and pivots per refine) and
# the distributed first phase on Fig. 6 and a 30-node random network.
bench-lp: build
	$(GO) test -run '^$$' -bench '^Benchmark(LPSolve|LPSolveReference|RefineDenseArrivals|DistributedAllocate)$$' -benchmem -count 5 ./internal/lp ./internal/core . | $(GO) run ./cmd/benchjson -compare BENCH_lp.json BENCH_lp.json

# Sharded allocation-engine perf trajectory: sequential oracle walk vs
# 8-worker sharded fan-out on a 32-component instance, the
# churn-delta re-solve (solves per churn event must stay ≪ group
# count), and one fresh arrival's live clique update on the dense
# shape (us/update, cliques).
bench-alloc: build
	$(GO) test -run '^$$' -bench '^Benchmark(CentralizedShardedSeq|CentralizedShardedPar|ChurnDelta|LiveArrival)$$' -benchmem -count 5 ./internal/core | $(GO) run ./cmd/benchjson -compare BENCH_alloc.json BENCH_alloc.json

# MAC/PHY datapath perf trajectory: the unicast contention and
# broadcast fan-out hot paths on a dense 30-node medium (must stay at
# 0 allocs/op), and the full Fig. 6 2PA-C stack's simulation rate
# (simSec/s). Allocations per delivered packet are gated by
# internal/netsim's TestSteadyStateAllocsPerDelivered.
bench-mac: build
	$(GO) test -run '^$$' -bench '^Benchmark(MediumResolve|BroadcastFanout|SimulatorEventRate)$$' -benchmem -count 5 . | $(GO) run ./cmd/benchjson BENCH_mac.json

# Topology-layer perf trajectory: grid vs all-pairs neighbor build at
# 1k/4k nodes, incidence vs pairwise contention build on a 1k-node
# scenario, and incremental vs rebuild mobility epochs (ms/epoch).
bench-topo: build
	$(GO) test -run '^$$' -bench '^Benchmark(TopologyBuild1k|TopologyBuild4k|ContentionBuild|MobilityEpoch)$$' -benchmem -count 5 ./internal/topology ./internal/contention ./internal/mobility | $(GO) run ./cmd/benchjson BENCH_topo.json

# Component-sharded simulator perf trajectory: simSec/s on the
# eight-tile Figure 6 workload for the single-engine baseline and
# 1/4/8-worker sharded pools. pkt/run must match across all four
# (byte-identical sharding).
bench-sim: build
	$(GO) test -run '^$$' -bench '^BenchmarkSimulatorEventRate(Multi|Sharded1|Sharded4|Sharded8)$$' -benchmem -count 5 . | $(GO) run ./cmd/benchjson BENCH_sim.json

# Serving-core perf trajectory on 32 chains × 4 flows: ns per churn
# event for the per-event CentralizedDelta baseline and for the engine
# at batch=64 and batch=1, the lock-free GetShare read (must stay 0
# allocs/op), awaited register latency (p50-us, p99-us), and cold-boot
# WAL replay at 10k and 100k logged events (events/s).
bench-serve: build
	$(GO) test -run '^$$' -bench '^BenchmarkServe' -benchmem -count 5 ./internal/serve | $(GO) run ./cmd/benchjson BENCH_serve.json
