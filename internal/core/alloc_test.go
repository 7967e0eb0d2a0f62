package core_test

import (
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/scenario"
)

func TestProgressiveFillingSingleConstraint(t *testing.T) {
	// Two vars, weights 2:1, capacity 1: (2/3, 1/3).
	x := core.ProgressiveFilling([][]float64{{1, 1}}, []float64{1}, []float64{2, 1})
	if math.Abs(x[0]-2.0/3) > eps || math.Abs(x[1]-1.0/3) > eps {
		t.Errorf("x = %v", x)
	}
}

func TestProgressiveFillingBottleneck(t *testing.T) {
	// x0 and x1 share a tight row (cap 0.4); x2 has its own row (cap
	// 1). Max-min: x0 = x1 = 0.2, x2 = 1.
	rows := [][]float64{{1, 1, 0}, {0, 0, 1}}
	x := core.ProgressiveFilling(rows, []float64{0.4, 1}, []float64{1, 1, 1})
	if math.Abs(x[0]-0.2) > eps || math.Abs(x[1]-0.2) > eps || math.Abs(x[2]-1) > eps {
		t.Errorf("x = %v", x)
	}
}

func TestProgressiveFillingCascade(t *testing.T) {
	// Classic cascade: rows {x0,x1} ≤ 1 and {x1,x2} ≤ 2. Round 1
	// freezes x0 = x1 = 0.5; then x2 grows alone to 1.5.
	rows := [][]float64{{1, 1, 0}, {0, 1, 1}}
	x := core.ProgressiveFilling(rows, []float64{1, 2}, []float64{1, 1, 1})
	if math.Abs(x[0]-0.5) > eps || math.Abs(x[1]-0.5) > eps || math.Abs(x[2]-1.5) > eps {
		t.Errorf("x = %v", x)
	}
}

func TestProgressiveFillingUncovered(t *testing.T) {
	// A variable in no row stays at zero; zero-weight variables stay
	// at zero.
	x := core.ProgressiveFilling([][]float64{{1, 0, 1}}, []float64{1}, []float64{1, 1, 0})
	if x[1] != 0 {
		t.Errorf("uncovered variable grew: %v", x)
	}
	if x[2] != 0 {
		t.Errorf("zero-weight variable grew: %v", x)
	}
	if math.Abs(x[0]-1) > eps {
		t.Errorf("x = %v", x)
	}
}

func TestMaxMinAllocateFig1(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Cliques: 2r1 ≤ 1 and r1 + 2r2 ≤ 1. Progressive filling: both
	// rise to 1/3 (second clique saturates: r1+2r2 = 1 at 1/3), so
	// both freeze at 1/3 — matching the strict fairness optimum.
	alloc := core.MaxMinAllocate(sc.Inst)
	wantShare(t, alloc, "F1", 1.0/3)
	wantShare(t, alloc, "F2", 1.0/3)
}

func TestMaxMinAllocateFig6(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.MaxMinAllocate(sc.Inst)
	// 3r1 ≤ 1 binds first for F1 at 1/3; F3 and F5 keep growing after
	// their contenders freeze.
	wantShare(t, alloc, "F1", 1.0/3)
	if alloc["F3"] <= alloc["F4"] {
		t.Errorf("F3 (%g) should exceed F4 (%g) under max-min", alloc["F3"], alloc["F4"])
	}
	// Max-min never violates a clique.
	checkCliqueFeasible(t, sc, alloc)
}

func checkCliqueFeasible(t *testing.T, sc *scenario.Scenario, alloc core.FlowAllocation) {
	t.Helper()
	for _, c := range sc.Inst.Cliques {
		var load float64
		for _, v := range c {
			load += alloc[sc.Inst.Graph.Subflow(v).ID.Flow]
		}
		if load > 1+eps {
			t.Errorf("clique %v overloaded: %.6f", c, load)
		}
	}
}

func TestCentralizedFeasibleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 20, Width: 900, Height: 900, Flows: 4, MaxHops: 6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		basic := core.BasicShares(sc.Inst)
		for id, b := range basic {
			if alloc[id] < b-eps {
				t.Errorf("trial %d: flow %s below basic share: %g < %g", trial, id, alloc[id], b)
			}
		}
		checkCliqueFeasible(t, sc, alloc)
		// Refined and unrefined solutions share the optimal total.
		plain, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plain.TotalEffectiveThroughput()-alloc.TotalEffectiveThroughput()) > 1e-5 {
			t.Errorf("trial %d: refinement changed the optimum: %g vs %g",
				trial, alloc.TotalEffectiveThroughput(), plain.TotalEffectiveThroughput())
		}
		// The total can never exceed the Prop. 1 bound… but only under
		// the fairness constraint; the basic-fairness LP may exceed it
		// (it trades equality for throughput), so instead check it
		// dominates the basic-share total.
		var basicTotal float64
		for _, b := range basic {
			basicTotal += b
		}
		if alloc.TotalEffectiveThroughput() < basicTotal-eps {
			t.Errorf("trial %d: LP total %g below basic total %g",
				trial, alloc.TotalEffectiveThroughput(), basicTotal)
		}
	}
}

func TestDistributedBasicShareOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 18, Width: 900, Height: 900, Flows: 4, MaxHops: 5,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.DistributedAllocate(sc.Inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		basic := core.BasicShares(sc.Inst)
		for id, b := range basic {
			got, ok := res.Shares[id]
			if !ok {
				t.Errorf("trial %d: flow %s missing from distributed shares", trial, id)
				continue
			}
			// Local denominators are no larger than the global one, so
			// local basic shares dominate global basic shares.
			if got < b-eps {
				t.Errorf("trial %d: flow %s below basic share: %g < %g", trial, id, got, b)
			}
		}
	}
}

func TestTwoTierSubflowsCoverAll(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.TwoTierAllocate(sc.Inst)
	if len(alloc) != sc.Inst.Graph.NumVertices() {
		t.Errorf("allocated %d subflows of %d", len(alloc), sc.Inst.Graph.NumVertices())
	}
	for id, share := range alloc {
		if share <= 0 || share > 1 {
			t.Errorf("subflow %s share %g out of range", id, share)
		}
	}
}

func TestTwoTierRespectsCliquesPerSlot(t *testing.T) {
	// Aggregate two-tier shares satisfy each clique within the number
	// of slots that can be concurrently reused; sanity: no single
	// subflow exceeds 1.
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.TwoTierAllocate(sc.Inst)
	var total float64
	for _, share := range alloc {
		total += share
	}
	if math.Abs(total-1.75) > eps {
		t.Errorf("two-tier single-hop total %g, want 7/4", total)
	}
}

func TestUpperBoundDominatesFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 16, Width: 800, Height: 800, Flows: 3, MaxHops: 5,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		fair := core.FairnessConstrained(sc.Inst)
		if got, want := fair.TotalEffectiveThroughput(), core.UpperBoundTotal(sc.Inst); math.Abs(got-want) > eps {
			t.Errorf("trial %d: fairness total %g != Prop.1 bound %g", trial, got, want)
		}
		// The fairness-constrained allocation always satisfies the
		// cliques (by construction of ω_Ω).
		checkCliqueFeasible(t, sc, fair)
	}
}

func TestSingleHopNeverExceedsBasic(t *testing.T) {
	// v_i ≤ l_i implies the Eq. 2 allocation is dominated by the
	// basic share.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 16, Width: 800, Height: 800, Flows: 3, MaxHops: 6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		naive := core.SingleHopShares(sc.Inst)
		basic := core.BasicShares(sc.Inst)
		for id := range basic {
			if naive[id] > basic[id]+eps {
				t.Errorf("trial %d: naive %g exceeds basic %g for %s", trial, naive[id], basic[id], id)
			}
		}
	}
}

func TestEndToEndConversion(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	alloc := core.SubflowAllocation{
		sub("F1", 0): 0.7,
		sub("F1", 1): 0.3,
		sub("F2", 0): 0.4,
		sub("F2", 1): 0.5,
	}
	e2e := alloc.EndToEnd(sc.Flows)
	wantShare(t, e2e, "F1", 0.3)
	wantShare(t, e2e, "F2", 0.4)
	uni := e2e.Uniform(sc.Flows)
	if uni[sub("F1", 0)] != 0.3 || uni[sub("F1", 1)] != 0.3 {
		t.Errorf("Uniform = %v", uni)
	}
}

// TestTotalEffectiveThroughputRepeatable sums one allocation many
// times: the total must not depend on map iteration order.
func TestTotalEffectiveThroughputRepeatable(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Float64bits(alloc.TotalEffectiveThroughput())
	for i := 0; i < 100; i++ {
		if got := math.Float64bits(alloc.TotalEffectiveThroughput()); got != want {
			t.Fatalf("call %d: total bits %x, first call %x", i, got, want)
		}
	}
}
