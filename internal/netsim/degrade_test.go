package netsim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/topology"
)

// chainInstance is a two-flow chain: F1 = A→B→C with weight 1 and
// F2 = C→D with weight 2.
func chainInstance(t *testing.T) *core.Instance {
	t.Helper()
	topo, err := topology.NewBuilder(topology.DefaultRange, 0).
		Add("A", 0, 0).Add("B", 200, 0).Add("C", 400, 0).Add("D", 600, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := flow.New("F1", 1, []topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := flow.New("F2", 2, []topology.NodeID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	set, err := flow.NewSet(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDegradeClassifiesLPErrors(t *testing.T) {
	inst := chainInstance(t)
	for _, err := range []error{lp.ErrIterationLimit, lp.ErrInfeasible, lp.ErrUnbounded} {
		if _, degraded, got := degrade(inst, err); !degraded || got != nil {
			t.Errorf("degrade(%v) = degraded %v, err %v", err, degraded, got)
		}
		if _, degraded, _ := degrade(inst, fmt.Errorf("group 3: %w", err)); !degraded {
			t.Errorf("wrapped %v not recognized", err)
		}
	}
	boom := errors.New("disk on fire")
	if _, degraded, err := degrade(inst, boom); degraded || !errors.Is(err, boom) {
		t.Errorf("degrade(%v) = degraded %v, err %v", boom, degraded, err)
	}
	if _, degraded, err := degrade(inst, nil); degraded || err != nil {
		t.Errorf("degrade(nil) = degraded %v, err %v", degraded, err)
	}
}

func TestDegradeFallsBackToBasicShares(t *testing.T) {
	inst := chainInstance(t)
	want := core.BasicShares(inst).Uniform(inst.Flows)
	got, degraded, err := degrade(inst, fmt.Errorf("solve: %w", lp.ErrIterationLimit))
	if err != nil || !degraded {
		t.Fatalf("degrade: degraded=%v err=%v", degraded, err)
	}
	if len(got) != len(want) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("subflow %s: fallback share %g != basic %g", id, got[id], w)
		}
	}
}

// TestSolveSharesMatchesStrictOnSolvableInstance checks that a
// solvable instance is not degraded and gets exactly the LP shares.
func TestSolveSharesMatchesStrictOnSolvableInstance(t *testing.T) {
	inst := chainInstance(t)
	a := core.NewAllocatorWorkers(1)
	strict, err := a.Centralized(inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := a.Distributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    Protocol
		want core.FlowAllocation
	}{{Protocol2PAC, strict}, {ProtocolDFS, strict}, {Protocol2PAD, dist.Shares}} {
		got, degraded, err := solveShares(a, inst, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if degraded {
			t.Errorf("protocol %d: solvable instance reported degraded", c.p)
		}
		for id, w := range c.want.Uniform(inst.Flows) {
			if math.Float64bits(got[id]) != math.Float64bits(w) {
				t.Errorf("protocol %d subflow %s: share %g != strict %g", c.p, id, got[id], w)
			}
		}
	}
	// The degraded allocation never exceeds what the LP certifies:
	// basic shares are the floor the LP starts from.
	basic := core.BasicShares(inst)
	for id, v := range strict {
		if v+1e-9 < basic[id] {
			t.Errorf("flow %s: LP share %g below basic floor %g", id, v, basic[id])
		}
	}
}
