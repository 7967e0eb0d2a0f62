package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"e2efair/internal/benchreport"
	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/serve"
	"e2efair/internal/topology"
)

// serveSection measures the batched serving core on the clustered
// churn workload (32 components × 4 flows): events/s of the per-event
// CentralizedDelta baseline vs the coalescing engine at batch size 64,
// the lock-free snapshot read path (ns/op and allocs/op), and awaited
// register latency percentiles. The batched and per-event paths must
// end in byte-identical shares — checked here on every run, and pinned
// independently by the serve package's seeded property test. Emitted
// to BENCH_serve.json by `make bench-serve`.
func serveSection(_ float64, seed int64, sec *benchreport.Section) error {
	fmt.Println("== Batched serving core ==")
	const clusters = 32
	const maxBatch = 64
	topo, flows, err := allocClusteredWorkload(clusters, seed)
	if err != nil {
		return err
	}
	opts := core.CentralizedOptions{Refine: true}
	spec := func(f *flow.Flow) serve.FlowSpec {
		return serve.FlowSpec{ID: f.ID(), Weight: f.Weight(), Path: f.Path()}
	}

	// Per-event baseline: every register/remove pays its own flow-set
	// + Instance rebuild + CentralizedDelta on a warm allocator — the
	// cost a caller serving churn directly on the PR 6 seam would see.
	base := core.NewAllocatorWorkers(1)
	live := append([]*flow.Flow(nil), flows...)
	solve := func() (core.FlowAllocation, error) {
		set, err := flow.NewSet(live...)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(topo, set)
		if err != nil {
			return nil, err
		}
		alloc, _, err := base.CentralizedDelta(inst, opts)
		return alloc, err
	}
	if _, err := solve(); err != nil { // warm the group cache off the clock
		return err
	}
	var baseFinal core.FlowAllocation
	baseEvents := 0
	baseStart := time.Now()
	for _, f := range flows {
		for i, lf := range live { // remove
			if lf.ID() == f.ID() {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		if _, err := solve(); err != nil {
			return err
		}
		baseEvents++
		live = append(live, f) // re-register
		if baseFinal, err = solve(); err != nil {
			return err
		}
		baseEvents++
	}
	baseSecs := time.Since(baseStart).Seconds()
	baseRate := float64(baseEvents) / baseSecs
	sec.Add("churnPerEvent", map[string]float64{
		"eventsPerSec": baseRate, "events": float64(baseEvents),
	})
	fmt.Printf("per-event CentralizedDelta:      %10.0f events/s  (%d events, %.2fs)\n",
		baseRate, baseEvents, baseSecs)

	// Batched engine: the same remove/re-register churn enqueued
	// asynchronously, coalesced per shard into ≤64-event batches.
	eng, err := serve.New(serve.Config{Topo: topo, MaxBatch: maxBatch, Workers: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	await := func(dones []<-chan error) error {
		for _, d := range dones {
			if err := <-d; err != nil {
				return err
			}
		}
		return nil
	}
	var setup []<-chan error
	for _, f := range flows {
		setup = append(setup, eng.RegisterAsync(spec(f)))
	}
	if err := await(setup); err != nil {
		return err
	}
	const rounds = 8
	st0 := eng.Stats()
	dones := make([]<-chan error, 0, 2*rounds*len(flows))
	batchStart := time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range flows {
			dones = append(dones, eng.RemoveAsync(f.ID()))
			dones = append(dones, eng.RegisterAsync(spec(f)))
		}
	}
	if err := await(dones); err != nil {
		return err
	}
	batchSecs := time.Since(batchStart).Seconds()
	st1 := eng.Stats()
	batchEvents := int(st1.Events - st0.Events)
	if want := 2 * rounds * len(flows); batchEvents != want {
		return fmt.Errorf("engine committed %d events, want %d", batchEvents, want)
	}
	batchRate := float64(batchEvents) / batchSecs
	rebuilds := st1.Rebuilds - st0.Rebuilds
	eventsPerRebuild := float64(batchEvents) / float64(rebuilds)
	speedup := batchRate / baseRate
	sec.Add("churnBatched", map[string]float64{
		"eventsPerSec":     batchRate,
		"speedup":          speedup,
		"eventsPerRebuild": eventsPerRebuild,
		"events":           float64(batchEvents),
		"maxBatch":         maxBatch,
	})
	fmt.Printf("batched engine (≤%d/batch):      %10.0f events/s  (%.1fx, %.1f events/rebuild)\n",
		maxBatch, batchRate, speedup, eventsPerRebuild)

	// Both churn paths end with every flow live in original order:
	// the shares must agree bit-for-bit.
	engShares, _ := eng.Shares()
	if len(engShares) != len(baseFinal) {
		return fmt.Errorf("engine holds %d flows, baseline %d", len(engShares), len(baseFinal))
	}
	for id, want := range baseFinal {
		if got := engShares[id]; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("flow %s: batched %v != per-event %v", id, got, want)
		}
	}

	// Lock-free snapshot reads on the live engine.
	readID := flows[0].ID()
	readNs, err := nsPerOp(func() error {
		if _, _, ok := eng.GetShare(readID); !ok {
			return fmt.Errorf("flow %s not readable", readID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	readAllocs := testing.AllocsPerRun(1000, func() {
		eng.GetShare(readID)
	})
	sec.Add("snapshotRead", map[string]float64{"nsPerOp": readNs, "allocsPerOp": readAllocs})
	fmt.Printf("snapshot read (GetShare):        %10.1f ns/op  %6.1f allocs/op\n", readNs, readAllocs)

	// Awaited register latency: each Register returns only once its
	// batch committed and the share is readable.
	const latPairs = 200
	lat := make([]time.Duration, 0, latPairs)
	tpl := spec(flows[0])
	for i := 0; i < latPairs; i++ {
		s := tpl
		s.ID = flow.ID(fmt.Sprintf("lat-%d", i))
		t0 := time.Now()
		if err := eng.Register(s); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
		if err := eng.Remove(s.ID); err != nil {
			return err
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := float64(lat[len(lat)/2]) / float64(time.Microsecond)
	p99 := float64(lat[(len(lat)*99+99)/100-1]) / float64(time.Microsecond)
	sec.Add("registerLatency", map[string]float64{"p50Us": p50, "p99Us": p99})
	fmt.Printf("awaited register latency:        p50 %.0fµs  p99 %.0fµs\n", p50, p99)

	// Crash recovery: boot time vs WAL length. A synthetic WAL of N
	// churn events (no covering snapshot, so every batch replays) is
	// handed to serve.New, timing snapshot load + tail replay + the
	// single recovery re-price.
	for _, n := range []int{10_000, 100_000} {
		events, secs, err := benchRecovery(n)
		if err != nil {
			return err
		}
		rate := float64(events) / secs
		sec.Add(fmt.Sprintf("recoveryReplay%dk", n/1000), map[string]float64{
			"events":       float64(events),
			"seconds":      secs,
			"eventsPerSec": rate,
		})
		fmt.Printf("recovery replay (%6d events): %10.0f events/s  (%.3fs boot)\n", events, rate, secs)
	}
	return nil
}

// benchRecovery writes a WAL of ~target churn events through the
// durable layer directly (batches of 64, no snapshot — the worst case,
// everything replays), then times a cold serve.New over it.
func benchRecovery(target int) (events int, seconds float64, err error) {
	b := topology.NewBuilder(topology.DefaultRange, 0)
	const nodes = 6
	for i := 0; i < nodes; i++ {
		b.Add(fmt.Sprintf("n%d", i), float64(i)*200, 0)
	}
	topo, err := b.Build()
	if err != nil {
		return 0, 0, err
	}
	path := make([]topology.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		if path[i], err = topo.Lookup(fmt.Sprintf("n%d", i)); err != nil {
			return 0, 0, err
		}
	}

	dir, err := os.MkdirTemp("", "e2efair-recovery-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	opts := durable.Options{Policy: durable.FsyncNever}
	store, err := durable.Open(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	logs, err := store.Attach(1, topo.AdjacencyFingerprint())
	if err != nil {
		return 0, 0, err
	}
	sl := logs[0]
	sl.Recovered() // fresh dir: nothing to consume

	// Batch 1 registers a persistent flow set so the recovery re-price
	// solves a real instance; every later batch is a register+remove
	// pair stream, the WAL shape a churn-heavy daemon writes.
	var rec durable.BatchRecord
	const persistent = 4
	rec.Epoch = 1
	for i := 0; i < persistent; i++ {
		rec.Events = append(rec.Events, durable.Event{
			Kind: durable.EventRegister, ID: flow.ID(fmt.Sprintf("perm%d", i)),
			Weight: 1, Path: path[i%2:],
		})
	}
	if err := sl.AppendBatch(&rec); err != nil {
		return 0, 0, err
	}
	events = persistent
	next := 0
	for events < target {
		rec.Epoch++
		rec.Events = rec.Events[:0]
		for b := 0; b < 64 && events < target; b += 2 {
			id := flow.ID(fmt.Sprintf("churn%d", next))
			next++
			rec.Events = append(rec.Events,
				durable.Event{Kind: durable.EventRegister, ID: id, Weight: 1, Path: path},
				durable.Event{Kind: durable.EventRemove, ID: id})
			events += 2
		}
		if err := sl.AppendBatch(&rec); err != nil {
			return 0, 0, err
		}
	}
	batches := int(rec.Epoch)
	if err := sl.Close(); err != nil {
		return 0, 0, err
	}
	store.Detach()

	// Cold boot over the WAL.
	store2, err := durable.Open(dir, opts)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	eng, err := serve.New(serve.Config{Topo: topo, Workers: 1, Durable: store2})
	if err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	defer eng.Close()
	if rec := eng.Recovery(); rec.Batches != batches || rec.Flows != persistent {
		return 0, 0, fmt.Errorf("recovery replayed %d batches / %d flows, want %d / %d",
			rec.Batches, rec.Flows, batches, persistent)
	}
	return events, seconds, nil
}
