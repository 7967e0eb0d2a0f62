package core_test

import (
	"fmt"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
)

// TestExactPaperShares checks the exact oracle (exact_test.go) against
// the paper's worked numbers as exact fractions: Fig. 6's 2PA-C shares
// (B/3, B/3, 2B/3, B/8, 3B/4) and Table I's 2PA-D shares (B/3, B/5,
// B/4, B/4), with B/3 for F5 where the paper reports B/2 (see
// TestTableIDistributed).
func TestExactPaperShares(t *testing.T) {
	sc, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	central, err := core.ExactCentralized(sc.Inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DistributedAllocate(sc.Inst)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.ExactDistributed(sc.Inst, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  map[flow.ID]string
		want map[flow.ID]string
	}{
		{"2PA-C", central, map[flow.ID]string{"F1": "1/3", "F2": "1/3", "F3": "2/3", "F4": "1/8", "F5": "3/4"}},
		{"Table I", local, map[flow.ID]string{"F1": "1/3", "F2": "1/5", "F3": "1/4", "F4": "1/4", "F5": "1/3"}},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s: exact shares %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestRefinementNearExact pins how far 2PA-C with refinement lands
// from the exact lexicographic max-min point: on the paper's worked
// examples, on every flow subset of Fig. 6 (the churn golden's states
// among them), on TestRefinementMatchesOracle's 200 abstract instances
// and on a sample of its dense ones. maxErr is the largest per-flow
// error seen over all 400 instances of that test (6e-7, on an abstract
// one; 1.6e-7 on the dense ones) rounded up to the next power of ten.
func TestRefinementNearExact(t *testing.T) {
	const maxErr = 1e-6
	var worst float64
	check := func(name string, inst *core.Instance) {
		t.Helper()
		got, err := core.CentralizedAllocate(inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := core.ExactError(inst, got)
		if err != nil {
			t.Fatalf("%s: exact oracle: %v", name, err)
		}
		worst = max(worst, e)
		if e > maxErr {
			t.Errorf("%s: a share is %g from the exact point", name, e)
		}
	}
	for _, build := range paperScenarios {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name, sc.Inst)
	}
	fig6, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	all := fig6.Flows.Flows()
	for mask := 1; mask < 1<<len(all); mask++ {
		var flows []*flow.Flow
		for i, f := range all {
			if mask&(1<<i) != 0 {
				flows = append(flows, f)
			}
		}
		set, err := flow.NewSet(flows...)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := core.NewInstance(fig6.Topo, set)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fig6 flows %05b", mask), inst)
	}
	for seed := int64(0); seed < 200; seed++ {
		inst, err := randomAbstractInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("abstract seed %d", seed), inst)
	}
	for _, seed := range []int64{0, 1, 2, 3, 10, 58, 127, 186} {
		inst, err := denseSessionsInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("dense seed %d", seed), inst)
	}
	t.Logf("largest per-flow error against the exact point: %g", worst)
}
