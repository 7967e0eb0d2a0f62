package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/scenario"
)

// TestAllocatorReuseAcrossInstances exercises the churn pattern: one
// Allocator solving many different instances back to back, each result
// checked against a fresh-state computation. The group share cache
// must never leak one instance's answer into another's.
func TestAllocatorReuseAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := core.NewAllocatorWorkers(4)
	for trial := 0; trial < 6; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 20, Width: 900, Height: 900, Flows: 5, MaxHops: 5,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Re-solving the same instance twice on the reused allocator
		// hits the group share cache on the second pass.
		for pass := 0; pass < 2; pass++ {
			got, err := a.Centralized(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				t.Fatalf("trial %d pass %d: %v", trial, pass, err)
			}
			want, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				t.Fatal(err)
			}
			for id, w := range want {
				if g := got[id]; g < w-1e-7 || g > w+1e-7 {
					t.Fatalf("trial %d pass %d: flow %v: %g, want %g", trial, pass, id, g, w)
				}
			}
			gotD, err := a.Distributed(sc.Inst)
			if err != nil {
				t.Fatalf("trial %d pass %d: distributed: %v", trial, pass, err)
			}
			wantD, err := core.NewAllocatorWorkers(1).Distributed(sc.Inst)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotD.Shares, wantD.Shares) {
				t.Fatalf("trial %d pass %d: distributed shares diverge on reused allocator", trial, pass)
			}
		}
	}
}
