package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

type pathSpec struct {
	id     string
	weight float64
	path   []string
}

// clusterFlows places one contention cluster anchored at x-offset x0 on
// the builder and returns its flow specs: a multi-hop chain flow, a
// cross flow above the chain, and two single-hop flows below it, all
// within interference range of each other and of nothing outside the
// cluster. Weights come from rng so distinct clusters carry distinct
// group LPs.
func clusterFlows(b *topology.Builder, c int, x0 float64, rng *rand.Rand) []pathSpec {
	n := func(s string) string { return fmt.Sprintf("c%d%s", c, s) }
	chain := []string{n("n0"), n("n1"), n("n2"), n("n3"), n("n4")}
	for i, name := range chain {
		b.Add(name, x0+float64(i)*200, 0)
	}
	b.Add(n("ta"), x0+300, 150)
	b.Add(n("tb"), x0+500, 150)
	b.Add(n("ba"), x0+100, -150)
	b.Add(n("bb"), x0+300, -150)
	b.Add(n("bc"), x0+500, -150)
	b.Add(n("bd"), x0+700, -150)
	w := func() float64 { return float64(1 + rng.Intn(3)) }
	return []pathSpec{
		{n("F-chain"), w(), chain},
		{n("F-top"), w(), []string{n("ta"), n("tb")}},
		{n("F-bot1"), w(), []string{n("ba"), n("bb")}},
		{n("F-bot2"), w(), []string{n("bc"), n("bd")}},
	}
}

// clusteredInstance builds an instance of `clusters` spatially
// separated contention components (2 km apart, far beyond the 250 m
// range), each holding four coupled flows — the multi-component shape
// the sharded engine fans out over.
func clusteredInstance(tb testing.TB, clusters int, seed int64) (*core.Instance, *topology.Topology, []*flow.Flow) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder(topology.DefaultRange, 0)
	var specs []pathSpec
	for c := 0; c < clusters; c++ {
		specs = append(specs, clusterFlows(b, c, float64(c)*2000, rng)...)
	}
	topo, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	flows := make([]*flow.Flow, 0, len(specs))
	for _, sp := range specs {
		path := make([]topology.NodeID, len(sp.path))
		for i, name := range sp.path {
			id, err := topo.Lookup(name)
			if err != nil {
				tb.Fatal(err)
			}
			path[i] = id
		}
		f, err := flow.New(flow.ID(sp.id), sp.weight, path)
		if err != nil {
			tb.Fatal(err)
		}
		flows = append(flows, f)
	}
	set, err := flow.NewSet(flows...)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, topo, flows
}

// requireSameBits fails unless the two allocations carry bit-identical
// float64 values for every flow.
func requireSameBits(tb testing.TB, label string, want, got core.FlowAllocation) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d flows, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			tb.Fatalf("%s: flow %s missing", label, id)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			tb.Fatalf("%s: flow %s: %v (bits %x), want %v (bits %x)",
				label, id, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestCentralizedShardedByteIdentity is the sharded engine's oracle
// property test: across 200 random instances and both refine settings,
// the sharded solve (several workers) must produce byte-for-byte the
// allocation of the sequential walk (one worker, the retained oracle),
// and a repeat solve on the same allocator — now served entirely from
// the group share cache — must reproduce the same bits with zero
// fresh LP solves.
func TestCentralizedShardedByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		var inst *core.Instance
		if trial%10 == 9 {
			inst, _, _ = clusteredInstance(t, 2+rng.Intn(5), int64(trial))
		} else {
			sc, err := scenario.Random(scenario.RandomConfig{
				Nodes: 20, Width: 900, Height: 900, Flows: 5, MaxHops: 5,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			inst = sc.Inst
		}
		for _, refine := range []bool{false, true} {
			opts := core.CentralizedOptions{Refine: refine}
			want, err := core.NewAllocatorWorkers(1).Centralized(inst, opts)
			if err != nil {
				t.Fatalf("trial %d refine=%v: sequential: %v", trial, refine, err)
			}
			par := core.NewAllocatorWorkers(4)
			got, delta, err := par.CentralizedDelta(inst, opts)
			if err != nil {
				t.Fatalf("trial %d refine=%v: sharded: %v", trial, refine, err)
			}
			label := fmt.Sprintf("trial %d refine=%v", trial, refine)
			requireSameBits(t, label, want, got)
			if delta.Solved == 0 || delta.Reused != 0 {
				t.Fatalf("%s: cold delta %+v, want all groups solved", label, delta)
			}
			// Second pass: every group hits the share cache.
			again, delta, err := par.CentralizedDelta(inst, opts)
			if err != nil {
				t.Fatalf("%s: cached: %v", label, err)
			}
			requireSameBits(t, label+" cached", want, again)
			if delta.Solved != 0 || delta.Reused != delta.Groups {
				t.Fatalf("%s: warm delta %+v, want all groups reused", label, delta)
			}
		}
	}
}

// TestChurnDeltaReusesUntouchedGroups proves the churn-delta property
// the dynamic layers depend on: removing one flow re-solves only the
// contention component that lost it, and every untouched group's
// shares come back bit-identical from the cache.
func TestChurnDeltaReusesUntouchedGroups(t *testing.T) {
	const clusters = 16
	instA, topo, flows := clusteredInstance(t, clusters, 99)
	a := core.NewAllocatorWorkers(4)
	opts := core.CentralizedOptions{Refine: true}

	before, deltaA, err := a.CentralizedDelta(instA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if deltaA.Groups != clusters {
		t.Fatalf("expected %d groups, got %d", clusters, deltaA.Groups)
	}
	if deltaA.Solved != clusters || deltaA.Reused != 0 {
		t.Fatalf("cold delta %+v, want %d solved", deltaA, clusters)
	}

	// Churn event: cluster 0 loses its cross flow.
	removed := flow.ID("c0F-top")
	kept := make([]*flow.Flow, 0, len(flows)-1)
	for _, f := range flows {
		if f.ID() != removed {
			kept = append(kept, f)
		}
	}
	set, err := flow.NewSet(kept...)
	if err != nil {
		t.Fatal(err)
	}
	instB, err := core.NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	after, deltaB, err := a.CentralizedDelta(instB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if deltaB.Groups != clusters {
		t.Fatalf("after churn: %d groups, want %d", deltaB.Groups, clusters)
	}
	if deltaB.Solved != 1 || deltaB.Reused != clusters-1 {
		t.Fatalf("churn delta %+v, want 1 solved / %d reused", deltaB, clusters-1)
	}
	// Untouched groups: everything outside cluster 0 is bit-identical.
	for id, w := range before {
		if id == removed || id[:2] == "c0" {
			continue
		}
		if g := after[id]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("untouched flow %s changed: %v -> %v", id, w, g)
		}
	}
	// The sequential oracle agrees on the churned instance too.
	want, err := core.NewAllocatorWorkers(1).Centralized(instB, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "churned instance vs oracle", want, after)
}

// TestCentralizedShardedRaceLarge solves a ≥1k-flow multi-component
// instance on an 8-worker allocator; under -race this proves the
// fan-out race-clean at scale, and the bits must still match the
// sequential oracle.
func TestCentralizedShardedRaceLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance; skipped in -short")
	}
	inst, _, flows := clusteredInstance(t, 256, 7)
	if len(flows) < 1000 {
		t.Fatalf("instance has %d flows, want ≥1000", len(flows))
	}
	opts := core.CentralizedOptions{Refine: true}
	got, delta, err := core.NewAllocatorWorkers(8).CentralizedDelta(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Groups != 256 {
		t.Fatalf("%d groups, want 256", delta.Groups)
	}
	want, err := core.NewAllocatorWorkers(1).Centralized(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "1k-flow sharded", want, got)
}
