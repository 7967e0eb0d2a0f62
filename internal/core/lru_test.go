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
	st := capped.CacheStats()
	if st.Evictions == 0 || st.Cap != 2 || st.Entries > 2 {
		t.Fatalf("unexpected cache stats: %+v", st)
	}
}

// TestGroupCacheStats checks the hit/miss/evict accounting: a repeat
// solve over one instance is all hits, and Delta's per-call split
// matches the cumulative counters.
func TestGroupCacheStats(t *testing.T) {
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
	st := a.CacheStats()
	if st.Hits != uint64(d2.Reused) || st.Misses != uint64(d1.Solved) {
		t.Fatalf("cumulative stats %+v disagree with deltas %+v / %+v", st, d1, d2)
	}
	if st.Entries == 0 || st.Cap != DefaultGroupCacheCap {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// ResetCache drops entries but keeps the trajectory.
	a.ResetCache()
	st2 := a.CacheStats()
	if st2.Entries != 0 || st2.Hits != st.Hits || st2.Misses != st.Misses {
		t.Fatalf("ResetCache changed counters: %+v -> %+v", st, st2)
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
	if st := a.CacheStats(); st.Entries != 4 {
		t.Fatalf("want 4 cached groups, got %+v", st)
	}
	a.SetGroupCacheCap(1)
	if st := a.CacheStats(); st.Entries != 1 || st.Evictions != 3 || st.Cap != 1 {
		t.Fatalf("after shrink: %+v", st)
	}
	a.SetGroupCacheCap(0)
	if st := a.CacheStats(); st.Cap != DefaultGroupCacheCap {
		t.Fatalf("cap 0 should restore default: %+v", st)
	}
}
