package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
)

// TestDistributedMatchesOracle pins Distributed bit for bit — every
// share, every local problem and the error text — to the map-based
// oracle in distributed_oracle_test.go. The shapes are the paper's
// instances, random geometric instances (each also rebuilt from its
// contention graph as an abstract instance, and with non-integer
// weights), and random abstract instances. Allocators with several
// worker sessions and one allocator reused across every instance must
// agree with the oracle as well.
func TestDistributedMatchesOracle(t *testing.T) {
	type shape struct {
		name string
		inst *core.Instance
	}
	var shapes []shape
	for _, build := range []func() (*scenario.Scenario, error){
		scenario.Figure1, scenario.Figure2Single, scenario.Figure2Multi,
		scenario.Figure4, scenario.Pentagon, scenario.Figure6,
	} {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{sc.Name, sc.Inst})
	}
	configs := []scenario.RandomConfig{
		{Nodes: 24, Width: 1000, Height: 1000, Flows: 6, MaxHops: 6},
		{Nodes: 20, Width: 900, Height: 900, Flows: 4, MaxHops: 5},
		{Nodes: 30, Width: 1100, Height: 1100, Flows: 8, MaxHops: 6},
		{Nodes: 40, Width: 900, Height: 900, Flows: 10, MaxHops: 4},
	}
	perConfig := 30
	if testing.Short() {
		perConfig = 4
	}
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(11 + ci)))
		for i := 0; i < perConfig; i++ {
			sc, err := scenario.Random(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("random%d/%d", ci, i)
			shapes = append(shapes, shape{name, sc.Inst})
			abstract, err := core.NewInstanceFromGraph(sc.Flows, sc.Inst.Graph)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, shape{name + "/abstract", abstract})
			var reweighted []*flow.Flow
			for _, f := range sc.Flows.Flows() {
				g, err := flow.New(f.ID(), 0.25+2*rng.Float64(), f.Path())
				if err != nil {
					t.Fatal(err)
				}
				reweighted = append(reweighted, g)
			}
			set, err := flow.NewSet(reweighted...)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := core.NewInstance(sc.Topo, set)
			if err != nil {
				t.Fatal(err)
			}
			shapes = append(shapes, shape{name + "/weights", inst})
		}
	}
	for seed := int64(0); seed < int64(3*perConfig); seed++ {
		inst, err := randomAbstractInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("abstract/%d", seed), inst})
	}

	reused := core.NewAllocatorWorkers(1)
	for _, sh := range shapes {
		want, wantErr := core.DistributedOracle(sh.inst)
		for _, a := range []*core.Allocator{reused, core.NewAllocatorWorkers(3)} {
			got, err := a.Distributed(sh.inst)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, oracle %v", sh.name, err, wantErr)
			}
			if err != nil {
				continue
			}
			if msg := diffDistributed(got, want); msg != "" {
				t.Fatalf("%s: %s", sh.name, msg)
			}
		}
	}
}

// diffDistributed describes the first difference between two
// distributed results, comparing floats by their bits, or returns "".
func diffDistributed(got, want *core.DistributedResult) string {
	if len(got.Shares) != len(want.Shares) {
		return fmt.Sprintf("%d shares, oracle %d", len(got.Shares), len(want.Shares))
	}
	for id, w := range want.Shares {
		if g, ok := got.Shares[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("flow %s: share %v, oracle %v", id, g, w)
		}
	}
	if len(got.Locals) != len(want.Locals) {
		return fmt.Sprintf("%d locals, oracle %d", len(got.Locals), len(want.Locals))
	}
	for i, w := range want.Locals {
		g := got.Locals[i]
		if g.Node != w.Node || fmt.Sprint(g.FlowIDs) != fmt.Sprint(w.FlowIDs) {
			return fmt.Sprintf("local %d: node %d flows %v, oracle node %d flows %v", i, g.Node, g.FlowIDs, w.Node, w.FlowIDs)
		}
		if len(g.Cliques) != len(w.Cliques) {
			return fmt.Sprintf("node %d: %d rows, oracle %d", w.Node, len(g.Cliques), len(w.Cliques))
		}
		for r := range w.Cliques {
			if !sameFloatBits(g.Cliques[r], w.Cliques[r]) {
				return fmt.Sprintf("node %d row %d: %v, oracle %v", w.Node, r, g.Cliques[r], w.Cliques[r])
			}
		}
		for _, v := range []struct {
			name      string
			got, want []float64
		}{{"basic", g.Basic, w.Basic}, {"weights", g.Weights, w.Weights}, {"solution", g.Solution, w.Solution}} {
			if !sameFloatBits(v.got, v.want) {
				return fmt.Sprintf("node %d %s: %v, oracle %v", w.Node, v.name, v.got, v.want)
			}
		}
	}
	return ""
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
