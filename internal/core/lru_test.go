package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// lruChainInstance builds a small multi-group instance: `clusters`
// radio-separated three-node chains, each carrying one two-hop flow
// with the given per-cluster weights. Weights that are not a power of
// two apart yield distinct group LP keys (keys hold the weights as
// scaleWeights leaves them), so a sweep over weight vectors exercises
// cache eviction.
func lruChainInstance(t *testing.T, weights []float64) *Instance {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultRange, 0)
	for c := range weights {
		x0 := float64(c) * 2000
		for i := 0; i < 3; i++ {
			b.Add(fmt.Sprintf("c%dn%d", c, i), x0+float64(i)*200, 0)
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var flows []*flow.Flow
	for c, w := range weights {
		var path []topology.NodeID
		for i := 0; i < 3; i++ {
			id, err := topo.Lookup(fmt.Sprintf("c%dn%d", c, i))
			if err != nil {
				t.Fatal(err)
			}
			path = append(path, id)
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", c)), w, path)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	set, err := flow.NewSet(flows...)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestGroupCacheEvictionExact pins the LRU satellite's core claim:
// a tiny cache cap forces constant eviction, and every allocation is
// still bit-identical to an uncapped allocator's, because cache keys
// capture the entire LP and solves are pure functions of it.
func TestGroupCacheEvictionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Eight instances of four groups each, over the odd weights 1–9
	// (no two a power of two apart, so five distinct group LPs),
	// cycling through a cap-2 cache.
	var insts []*Instance
	for k := 0; k < 8; k++ {
		weights := make([]float64, 4)
		for i := range weights {
			weights[i] = float64(1 + 2*rng.Intn(5))
		}
		insts = append(insts, lruChainInstance(t, weights))
	}
	capped := NewAllocatorWorkers(1)
	capped.SetGroupCacheCap(2)
	uncapped := NewAllocatorWorkers(1)
	opts := CentralizedOptions{Refine: true}
	totalEvicted := 0
	for round := 0; round < 3; round++ {
		for _, inst := range insts {
			got, d, err := capped.CentralizedDelta(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			totalEvicted += d.Evicted
			want, err := uncapped.Centralized(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("allocation size mismatch: %d vs %d", len(got), len(want))
			}
			for id, w := range want {
				if math.Float64bits(got[id]) != math.Float64bits(w) {
					t.Fatalf("flow %s: capped %v != uncapped %v", id, got[id], w)
				}
			}
		}
	}
	if totalEvicted == 0 {
		t.Fatal("expected evictions with cap 2 over five distinct group LPs")
	}
	if c := capped.cache; c.cap != 2 || len(c.entries) > 2 {
		t.Fatalf("cache holds %d entries under cap %d, want at most 2 under cap 2", len(c.entries), c.cap)
	}
}

// TestGroupCacheAccounting checks each call's hit/miss split: a repeat
// solve over one instance is all hits, and after ResetCache the next
// call solves every group again.
func TestGroupCacheAccounting(t *testing.T) {
	inst := lruChainInstance(t, []float64{1, 2, 3})
	a := NewAllocatorWorkers(1)
	opts := CentralizedOptions{Refine: true}
	_, d1, err := a.CentralizedDelta(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Solved != d1.Groups || d1.Reused != 0 {
		t.Fatalf("cold call: want all %d groups solved, got %+v", d1.Groups, d1)
	}
	_, d2, err := a.CentralizedDelta(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Reused != d2.Groups || d2.Solved != 0 || d2.Evicted != 0 {
		t.Fatalf("warm call: want all %d groups reused, got %+v", d2.Groups, d2)
	}
	if len(a.cache.entries) == 0 || a.cache.cap != DefaultGroupCacheCap {
		t.Fatalf("cache holds %d entries under cap %d", len(a.cache.entries), a.cache.cap)
	}
	a.ResetCache()
	if len(a.cache.entries) != 0 {
		t.Fatalf("ResetCache left %d entries", len(a.cache.entries))
	}
	_, d3, err := a.CentralizedDelta(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != d1 {
		t.Fatalf("call after ResetCache: got %+v, want the cold call's %+v", d3, d1)
	}
}

// TestSetGroupCacheCapTrims checks that shrinking the cap evicts
// immediately and that cap < 1 restores the default.
func TestSetGroupCacheCapTrims(t *testing.T) {
	inst := lruChainInstance(t, []float64{1, 3, 5, 7})
	a := NewAllocatorWorkers(1)
	if _, _, err := a.CentralizedDelta(inst, CentralizedOptions{Refine: true}); err != nil {
		t.Fatal(err)
	}
	if n := len(a.cache.entries); n != 4 {
		t.Fatalf("want 4 cached groups, got %d", n)
	}
	a.SetGroupCacheCap(1)
	if n := len(a.cache.entries); n != 1 || a.cache.cap != 1 {
		t.Fatalf("after shrink: %d entries under cap %d, want 1 under cap 1", n, a.cache.cap)
	}
	a.SetGroupCacheCap(0)
	if a.cache.cap != DefaultGroupCacheCap {
		t.Fatalf("cap 0 should restore default, got %d", a.cache.cap)
	}
}
