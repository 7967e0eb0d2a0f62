package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

func TestComponentsAndFlowGroups(t *testing.T) {
	// Two disjoint chains form two components / two flow groups.
	b := topology.NewBuilder(topology.DefaultRange, 0)
	b.Add("A", 0, 0).Add("B", 200, 0).Add("C", 400, 0)
	b.Add("X", 5000, 0).Add("Y", 5200, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := flow.New("F1", 1, []topology.NodeID{0, 1, 2})
	f2, _ := flow.New("F2", 1, []topology.NodeID{3, 4})
	set, _ := flow.NewSet(f1, f2)
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	if comps := inst.Graph.Components(); len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	groups := core.FlowGroups(inst)
	if fmt.Sprint(groups) != "[[F1] [F2]]" {
		t.Errorf("groups = %v", groups)
	}
}

func TestFlowGroupsTransitive(t *testing.T) {
	// F1 contends F2, F2 contends F3, F1 far from F3: one group of
	// three (the paper's transitivity example).
	b := topology.NewBuilder(topology.DefaultRange, 0)
	b.Add("A", 0, 0).Add("B", 200, 0)
	b.Add("C", 400, 0).Add("D", 600, 0)
	b.Add("E", 800, 0).Add("F", 1000, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := flow.New("F1", 1, []topology.NodeID{0, 1})
	f2, _ := flow.New("F2", 1, []topology.NodeID{2, 3})
	f3, _ := flow.New("F3", 1, []topology.NodeID{4, 5})
	set, _ := flow.NewSet(f1, f2, f3)
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Graph.Adjacent(0, 2) {
		t.Fatal("F1 and F3 should not contend directly")
	}
	groups := core.FlowGroups(inst)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want one group of three", groups)
	}
}

// edgeFlowGroups is the definition of Sec. II-A: flows united over
// every contention edge, each group sorted, groups ordered by first ID.
func edgeFlowGroups(g *contention.Graph) [][]flow.ID {
	parent := make(map[flow.ID]flow.ID)
	var find func(flow.ID) flow.ID
	find = func(x flow.ID) flow.ID {
		if p := parent[x]; p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	for v := 0; v < g.NumVertices(); v++ {
		parent[g.Subflow(v).ID.Flow] = g.Subflow(v).ID.Flow
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if a, b := find(g.Subflow(v).ID.Flow), find(g.Subflow(u).ID.Flow); a != b {
				parent[a] = b
			}
		}
	}
	byRoot := make(map[flow.ID][]flow.ID)
	for id := range parent {
		byRoot[find(id)] = append(byRoot[find(id)], id)
	}
	var out [][]flow.ID
	for _, ids := range byRoot {
		slices.Sort(ids)
		out = append(out, ids)
	}
	slices.SortFunc(out, func(a, b []flow.ID) int { return slices.Compare(a, b) })
	return out
}

// TestFlowGroupsMatchEdgeClosure checks the clique-built groups
// against the edge closure on random geometric and abstract instances.
func TestFlowGroupsMatchEdgeClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 30, Width: 1100, Height: 1100, Flows: 8, MaxHops: 3,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		abstract, err := randomAbstractInstance(int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []*core.Instance{sc.Inst, abstract} {
			if got, want := core.FlowGroups(inst), edgeFlowGroups(inst.Graph); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: groups %v, edge closure %v", trial, got, want)
			}
		}
	}
}

func TestWeightedCliqueNumber(t *testing.T) {
	// Weighted triangle vs heavy pair.
	f1, _ := flow.New("F1", 1, []topology.NodeID{0, 1})
	f2, _ := flow.New("F2", 1, []topology.NodeID{2, 3})
	f3, _ := flow.New("F3", 1, []topology.NodeID{4, 5})
	f4, _ := flow.New("F4", 5, []topology.NodeID{6, 7})
	set, _ := flow.NewSet(f1, f2, f3, f4)
	// Triangle 0-1-2 (total weight 3) and edge 2-3 (weight 1+5=6).
	g, err := contention.NewGraphFromEdges(set.Subflows(), [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstanceFromGraph(set, g)
	if err != nil {
		t.Fatal(err)
	}
	if omega := core.WeightedCliqueNumber(inst); omega != 6 {
		t.Errorf("ω_Ω = %g, want 6", omega)
	}
}

// TestWeightedCliqueNumberIsFairnessOmega pins ω_Ω to the divisor
// FairnessConstrained uses, bit for bit, on single-group instances
// with non-integer weights.
func TestWeightedCliqueNumberIsFairnessOmega(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		sc, err := scenario.Random(scenario.RandomConfig{
			Nodes: 24, Width: 1000, Height: 1000, Flows: 6, MaxHops: 6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var flows []*flow.Flow
		for _, f := range sc.Flows.Flows() {
			g, err := flow.New(f.ID(), 0.25+2*rng.Float64(), f.Path())
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, g)
		}
		set, _ := flow.NewSet(flows...)
		inst, err := core.NewInstance(sc.Topo, set)
		if err != nil {
			t.Fatal(err)
		}
		if len(core.FlowGroups(inst)) != 1 {
			continue
		}
		checked++
		omega, fair := core.WeightedCliqueNumber(inst), core.FairnessConstrained(inst)
		for _, f := range flows {
			if w := f.Weight() / omega; math.Float64bits(fair[f.ID()]) != math.Float64bits(w) {
				t.Fatalf("trial %d flow %s: fair share %v, w/ω_Ω %v", trial, f.ID(), fair[f.ID()], w)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no single-group instance drawn")
	}
}
