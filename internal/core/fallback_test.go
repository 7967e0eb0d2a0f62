package core

import (
	"errors"
	"fmt"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/topology"
)

func chainInstance(t *testing.T) *Instance {
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
	inst, err := NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDegradableLPError(t *testing.T) {
	for _, err := range []error{lp.ErrIterationLimit, lp.ErrInfeasible, lp.ErrUnbounded} {
		if !DegradableLPError(err) {
			t.Errorf("DegradableLPError(%v) = false", err)
		}
		if !DegradableLPError(fmt.Errorf("group 3: %w", err)) {
			t.Errorf("wrapped %v not recognized", err)
		}
	}
	if DegradableLPError(errors.New("disk on fire")) {
		t.Error("arbitrary error treated as degradable")
	}
	if DegradableLPError(nil) {
		t.Error("nil error treated as degradable")
	}
}

func TestDegradeFallsBackToBasicShares(t *testing.T) {
	inst := chainInstance(t)
	want := BasicShares(inst)
	got, degraded, err := degrade(inst, fmt.Errorf("solve: %w", lp.ErrIterationLimit))
	if err != nil || !degraded {
		t.Fatalf("degrade: degraded=%v err=%v", degraded, err)
	}
	if len(got) != len(want) {
		t.Fatalf("allocation sizes differ: %d vs %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("flow %s: fallback share %g != basic %g", id, got[id], w)
		}
	}
	// Non-degradable errors must propagate unchanged.
	boom := errors.New("boom")
	if _, degraded, err := degrade(inst, boom); degraded || !errors.Is(err, boom) {
		t.Errorf("degrade(boom) = degraded=%v err=%v", degraded, err)
	}
}

func TestGracefulMatchesStrictOnSolvableInstance(t *testing.T) {
	inst := chainInstance(t)
	a := NewAllocatorWorkers(1)
	strict, err := a.Centralized(inst, CentralizedOptions{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	graceful, degraded, err := a.GracefulCentralized(inst, CentralizedOptions{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Error("solvable instance reported degraded")
	}
	for id, v := range strict {
		if graceful[id] != v {
			t.Errorf("flow %s: graceful %g != strict %g", id, graceful[id], v)
		}
	}
	dres, err := a.Distributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	gd, degraded, err := a.GracefulDistributed(inst)
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Error("distributed reported degraded on a solvable instance")
	}
	for id, v := range dres.Shares {
		if gd[id] != v {
			t.Errorf("flow %s: graceful distributed %g != strict %g", id, gd[id], v)
		}
	}
	// The degraded allocation never exceeds what the LP certifies:
	// basic shares are the floor the LP starts from.
	basic := BasicShares(inst)
	for id, v := range strict {
		if v+1e-9 < basic[id] {
			t.Errorf("flow %s: LP share %g below basic floor %g", id, v, basic[id])
		}
	}
}
