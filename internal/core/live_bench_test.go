package core_test

import (
	"math/rand"
	"testing"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

// denseChurn is the dense serving shape: one connected 100-node
// scenario.Random component (topology seed 14) with 40 shortest-path
// background flows, and a 3–4-hop session path that registers and
// leaves again, as a templated session does in the serving engine.
func denseChurn(tb testing.TB) (*topology.Topology, []*flow.Flow, *flow.Flow) {
	tb.Helper()
	sc, err := scenario.Random(scenario.RandomConfig{
		Nodes: 100, Flows: 40, Width: 1300, Height: 1300, MaxHops: 6,
	}, rand.New(rand.NewSource(14)))
	if err != nil {
		tb.Fatal(err)
	}
	tbl := routing.BuildTable(sc.Topo)
	rng := rand.New(rand.NewSource(3))
	for {
		src := topology.NodeID(rng.Intn(sc.Topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(sc.Topo.NumNodes()))
		path, err := tbl.Route(src, dst)
		if err != nil || len(path) < 4 || len(path) > 5 {
			continue
		}
		sess, err := flow.New("session", 1, path)
		if err != nil {
			tb.Fatal(err)
		}
		return sc.Topo, sc.Flows.Flows(), sess
	}
}

// benchDenseChurn times one price cycle per batch — flow set, instance,
// cache-hit CentralizedDelta — over alternating batches that add the
// session and remove it again, and reports µs per batch.
func benchDenseChurn(b *testing.B, instance func(*flow.Set) (*core.Instance, error)) {
	_, bg, sess := denseChurn(b)
	batches := [2][]*flow.Flow{append(append([]*flow.Flow{}, bg...), sess), bg}
	alloc := core.NewAllocatorWorkers(1)
	opts := core.CentralizedOptions{Refine: true}
	price := func(flows []*flow.Flow) {
		set, err := flow.NewSet(flows...)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := instance(set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alloc.Centralized(inst, opts); err != nil {
			b.Fatal(err)
		}
	}
	for _, flows := range batches { // warm the group-share cache
		price(flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, flows := range batches {
			price(flows)
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(2*b.N), "us/batch")
}

// BenchmarkNewInstanceDense prices each batch from scratch.
func BenchmarkNewInstanceDense(b *testing.B) {
	topo, _, _ := denseChurn(b)
	benchDenseChurn(b, func(set *flow.Set) (*core.Instance, error) {
		return core.NewInstance(topo, set)
	})
}

// BenchmarkLiveInstanceChurn prices each batch from a live instance
// updated by the batch's delta.
func BenchmarkLiveInstanceChurn(b *testing.B) {
	topo, _, _ := denseChurn(b)
	live := core.NewLive(topo)
	benchDenseChurn(b, func(set *flow.Set) (*core.Instance, error) {
		return live.Update(set), nil
	})
}
