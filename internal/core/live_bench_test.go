package core_test

import (
	"fmt"
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

// BenchmarkLiveArrival times one fresh 3–4-hop arrival's Live.Update
// on the dense shape with three sessions live: the clique update a
// cache-missing register pays before its group LP. Each iteration
// registers one of eight arrival paths and, untimed, removes it again.
// It reports µs per update and the maximal cliques after an arrival,
// averaged over the eight in an untimed pass.
func BenchmarkLiveArrival(b *testing.B) {
	topo, bg, _ := denseChurn(b)
	tbl := routing.BuildTable(topo)
	rng := rand.New(rand.NewSource(9))
	var fresh []*flow.Flow
	for len(fresh) < 3+8 {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		path, err := tbl.Route(src, dst)
		if err != nil || len(path) < 4 || len(path) > 5 {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("S%d", len(fresh))), 1, path)
		if err != nil {
			b.Fatal(err)
		}
		fresh = append(fresh, f)
	}
	base := append(append([]*flow.Flow{}, bg...), fresh[:3]...)
	baseSet, err := flow.NewSet(base...)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]*flow.Set, 0, 8)
	for _, f := range fresh[3:] {
		set, err := flow.NewSet(append(append([]*flow.Flow{}, base...), f)...)
		if err != nil {
			b.Fatal(err)
		}
		arrivals = append(arrivals, set)
	}
	live := core.NewLive(topo)
	live.Update(baseSet)
	var cliques int
	for _, set := range arrivals {
		cliques += len(live.Update(set).Cliques)
		live.Update(baseSet)
	}
	var elapsed time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		live.Update(arrivals[i%len(arrivals)])
		elapsed += time.Since(start)
		b.StopTimer()
		live.Update(baseSet)
		b.StartTimer()
	}
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us/update")
	b.ReportMetric(float64(cliques)/float64(len(arrivals)), "cliques")
}
