package serve

// Serving-core benchmarks, written to BENCH_serve.json by
// `make bench-serve`: per-event churn on the CentralizedDelta baseline
// and on the engine (batched and at MaxBatch=1, so batching and
// sharding are measured apart), the lock-free read path, awaited
// register latency, and recovery replay over a long WAL.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// benchClusters is the churn workload's shard count: one chain per
// radio component, four coupled flows per chain.
const benchClusters = 32

// benchChurnRounds is how many remove/re-register passes over every
// flow the engine benchmarks enqueue before awaiting them, so the
// shard queues fill far enough for 64-event batches.
const benchChurnRounds = 8

// benchWorkload builds the churn workload: benchClusters six-node
// chains, each carrying the whole chain plus three overlapping
// sub-chains with weights 1–3.
func benchWorkload(b *testing.B) (*topology.Topology, []*flow.Flow) {
	b.Helper()
	topo, ids := clusteredTopo(b, benchClusters, 6)
	rng := rand.New(rand.NewSource(1))
	var flows []*flow.Flow
	for c, chain := range ids {
		for i, span := range [][2]int{{0, 5}, {0, 1}, {2, 4}, {3, 5}} {
			f, err := flow.New(flow.ID(fmt.Sprintf("c%d-F%d", c, i)), float64(1+rng.Intn(3)), chain[span[0]:span[1]+1])
			if err != nil {
				b.Fatal(err)
			}
			flows = append(flows, f)
		}
	}
	return topo, flows
}

func specOf(f *flow.Flow) FlowSpec {
	return FlowSpec{ID: f.ID(), Weight: f.Weight(), Path: f.Path()}
}

// perEvent is the churn baseline without the engine: every register or
// remove rebuilds the flow set and instance and re-solves with
// CentralizedDelta on a warm allocator.
type perEvent struct {
	topo  *topology.Topology
	alloc *core.Allocator
	live  []*flow.Flow
}

func newPerEvent(topo *topology.Topology, flows []*flow.Flow) *perEvent {
	return &perEvent{topo: topo, alloc: core.NewAllocatorWorkers(1), live: slices.Clone(flows)}
}

// toggle removes f when it is live and re-registers it at the end of
// the live list otherwise, then re-solves.
func (p *perEvent) toggle(f *flow.Flow) (core.FlowAllocation, error) {
	if i := slices.Index(p.live, f); i >= 0 {
		p.live = slices.Delete(p.live, i, i+1)
	} else {
		p.live = append(p.live, f)
	}
	return p.solve()
}

func (p *perEvent) solve() (core.FlowAllocation, error) {
	set, err := flow.NewSet(p.live...)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(p.topo, set)
	if err != nil {
		return nil, err
	}
	alloc, _, err := p.alloc.CentralizedDelta(inst, core.CentralizedOptions{Refine: true})
	return alloc, err
}

// BenchmarkServeChurnPerEvent is the per-event baseline: one op is one
// remove or re-register, each paying its own flow set, instance and
// CentralizedDelta. Event i toggles flow (i/2) mod n.
func BenchmarkServeChurnPerEvent(b *testing.B) {
	topo, flows := benchWorkload(b)
	p := newPerEvent(topo, flows)
	if _, err := p.solve(); err != nil { // warm the group cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.toggle(flows[(i/2)%len(flows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeChurn runs the same churn through the engine: one op is
// one event, enqueued asynchronously and awaited every
// benchChurnRounds passes over the flows. batch=64 coalesces each
// shard's queue into 64-event batches; batch=1 prices every event on
// its own, so the gap to the per-event baseline is what sharding and
// the live instance buy, and the gap between the two is batching.
// After the timed loop the churn is completed to whole passes, the
// committed-event count is checked, and the final shares must equal
// the per-event baseline's bit for bit.
func BenchmarkServeChurn(b *testing.B) {
	for _, batch := range []int{64, 1} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchServeChurn(b, batch)
		})
	}
}

func benchServeChurn(b *testing.B, maxBatch int) {
	topo, flows := benchWorkload(b)
	eng, err := New(Config{Topo: topo, MaxBatch: maxBatch, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	dones := make([]<-chan error, 0, 2*benchChurnRounds*len(flows))
	await := func() {
		for _, d := range dones {
			if err := <-d; err != nil {
				b.Fatal(err)
			}
		}
		dones = dones[:0]
	}
	for _, f := range flows {
		dones = append(dones, eng.RegisterAsync(specOf(f)))
	}
	await()
	event := func(i int) {
		f := flows[(i/2)%len(flows)]
		if i%2 == 0 {
			dones = append(dones, eng.RemoveAsync(f.ID()))
		} else {
			dones = append(dones, eng.RegisterAsync(specOf(f)))
		}
		if len(dones) == cap(dones) {
			await()
		}
	}
	st0 := eng.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		event(i)
	}
	await()
	b.StopTimer()
	events := b.N
	for ; events%(2*len(flows)) != 0; events++ {
		event(events)
	}
	await()
	st1 := eng.Stats()
	if got := st1.Events - st0.Events; got != uint64(events) {
		b.Fatalf("engine committed %d events, want %d", got, events)
	}
	b.ReportMetric(float64(events)/float64(st1.Rebuilds-st0.Rebuilds), "events/rebuild")

	// One per-event pass leaves every flow live in its original order,
	// as the engine's whole passes do.
	p := newPerEvent(topo, flows)
	var want core.FlowAllocation
	for i := 0; i < 2*len(flows); i++ {
		if want, err = p.toggle(flows[i/2]); err != nil {
			b.Fatal(err)
		}
	}
	got, _ := eng.Shares()
	if len(got) != len(want) {
		b.Fatalf("engine holds %d flows, per-event baseline %d", len(got), len(want))
	}
	for id, w := range want {
		if g := got[id]; math.Float64bits(g) != math.Float64bits(w) {
			b.Fatalf("flow %s: batched %v != per-event %v", id, g, w)
		}
	}
}

// BenchmarkServeGetShare times the lock-free snapshot read on a live
// engine; it must not allocate.
func BenchmarkServeGetShare(b *testing.B) {
	topo, flows := benchWorkload(b)
	eng, err := New(Config{Topo: topo, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, f := range flows {
		if err := eng.Register(specOf(f)); err != nil {
			b.Fatal(err)
		}
	}
	id := flows[0].ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := eng.GetShare(id); !ok {
			b.Fatalf("flow %s not readable", id)
		}
	}
}

// BenchmarkServeRegister times an awaited Register, which returns once
// its batch committed and the share is readable, followed by a Remove
// of the same flow. p50-us and p99-us are the Register latencies alone.
func BenchmarkServeRegister(b *testing.B) {
	topo, flows := benchWorkload(b)
	eng, err := New(Config{Topo: topo, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for _, f := range flows {
		if err := eng.Register(specOf(f)); err != nil {
			b.Fatal(err)
		}
	}
	spec := specOf(flows[0])
	ids := make([]flow.ID, 1024)
	for i := range ids {
		ids[i] = flow.ID(fmt.Sprintf("lat-%d", i))
	}
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.ID = ids[i%len(ids)]
		t0 := time.Now()
		if err := eng.Register(spec); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
		if err := eng.Remove(spec.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	slices.Sort(lat)
	us := func(q int) float64 { return float64(lat[(len(lat)*q+99)/100-1]) / float64(time.Microsecond) }
	b.ReportMetric(us(50), "p50-us")
	b.ReportMetric(us(99), "p99-us")
}

// BenchmarkServeRecovery times a cold boot — store open, WAL replay and
// the one recovery re-price — over a WAL of churn events with no
// covering snapshot, so every batch replays. The WAL is written once,
// off the clock, and each boot is stopped without its final snapshot
// so the next one replays the same log.
func BenchmarkServeRecovery(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			benchServeRecovery(b, n)
		})
	}
}

// recoveryFlows is the flow count the recovery WAL leaves live.
const recoveryFlows = 4

func benchServeRecovery(b *testing.B, target int) {
	topo, ids := clusteredTopo(b, 1, 6)
	path := ids[0]
	dir := b.TempDir()
	opts := durable.Options{Policy: durable.FsyncNever}
	store, err := durable.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	logs, err := store.Attach(1, topo.AdjacencyFingerprint())
	if err != nil {
		b.Fatal(err)
	}
	sl := logs[0]
	sl.Recovered() // fresh dir: nothing to consume

	// Batch 1 registers the flows that stay live, so the recovery
	// re-price solves a real instance; every later batch is a stream of
	// register+remove pairs, the WAL a churn-heavy daemon writes.
	rec := durable.BatchRecord{Epoch: 1}
	for i := 0; i < recoveryFlows; i++ {
		rec.Events = append(rec.Events, durable.Event{
			Kind: durable.EventRegister, ID: flow.ID(fmt.Sprintf("perm%d", i)),
			Weight: 1, Path: path[i%2:],
		})
	}
	if err := sl.AppendBatch(&rec); err != nil {
		b.Fatal(err)
	}
	events, next := recoveryFlows, 0
	for events < target {
		rec.Epoch++
		rec.Events = rec.Events[:0]
		for k := 0; k < 64 && events < target; k += 2 {
			id := flow.ID(fmt.Sprintf("churn%d", next))
			next++
			rec.Events = append(rec.Events,
				durable.Event{Kind: durable.EventRegister, ID: id, Weight: 1, Path: path},
				durable.Event{Kind: durable.EventRemove, ID: id})
			events += 2
		}
		if err := sl.AppendBatch(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := sl.Close(); err != nil {
		b.Fatal(err)
	}
	store.Detach()
	batches := int(rec.Epoch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := durable.Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := New(Config{Topo: topo, Workers: 1, Durable: store})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := eng.Recovery(); got.Batches != batches || got.Flows != recoveryFlows {
			b.Fatalf("recovery replayed %d batches / %d flows, want %d / %d",
				got.Batches, got.Flows, batches, recoveryFlows)
		}
		eng.crash()
		b.StartTimer()
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
