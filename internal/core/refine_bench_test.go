package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// denseArrivals is the dense shape as a cache-missing arrival sees
// it: denseChurn's 40 background flows plus one session on a fresh
// 3–4-hop path, one instance per path. Each is one 41-flow group.
func denseArrivals(tb testing.TB, paths int) []*core.Instance {
	tb.Helper()
	topo, bg, _ := denseChurn(tb)
	tbl := routing.BuildTable(topo)
	rng := rand.New(rand.NewSource(5))
	var out []*core.Instance
	for len(out) < paths {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		path, err := tbl.Route(src, dst)
		if err != nil || len(path) < 4 || len(path) > 5 {
			continue
		}
		sess, err := flow.New(flow.ID(fmt.Sprintf("session%d", len(out))), 1, path)
		if err != nil {
			tb.Fatal(err)
		}
		set, err := flow.NewSet(append(append([]*flow.Flow{}, bg...), sess)...)
		if err != nil {
			tb.Fatal(err)
		}
		inst, err := core.NewInstance(topo, set)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, inst)
	}
	return out
}

// BenchmarkRefineDenseArrivals times one refined group solve on the
// dense arrival shape, the share cache reset before every solve so
// each one misses as a fresh arrival does. It reports µs per group
// solve, and the LP solves and simplex pivots one refined group solve
// takes. The counts come from one untimed pass over every instance, so
// they are exact whatever b.N is.
func BenchmarkRefineDenseArrivals(b *testing.B) {
	insts := denseArrivals(b, 8)
	alloc := core.NewAllocatorWorkers(1)
	opts := core.CentralizedOptions{Refine: true}
	var refines, lps, pivots int
	for _, inst := range insts {
		alloc.ResetCache()
		_, d, err := alloc.CentralizedDelta(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		refines += d.Solved
		lps += d.LPSolves
		pivots += d.Pivots
	}
	var groups int
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		alloc.ResetCache()
		_, d, err := alloc.CentralizedDelta(insts[i%len(insts)], opts)
		if err != nil {
			b.Fatal(err)
		}
		groups += d.Solved
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(groups), "us/solve")
	b.ReportMetric(float64(lps)/float64(refines), "lpsolves/refine")
	b.ReportMetric(float64(pivots)/float64(refines), "pivots/refine")
}
