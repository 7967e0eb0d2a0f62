package e2efair_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"e2efair"
	"e2efair/internal/core"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

// TestBuiltinSpecsMatchScenarios checks that the facade's builtin
// networks and the scenario constructors the experiments run on
// describe the same paper networks: the same nodes at the same
// positions, the same subflows and maximal cliques, and bit-identical
// 2PA-C and 2PA-D shares. The pentagon is compared on cliques and
// shares only: the facade embeds Fig. 5 geometrically, while the
// scenario is the paper's abstract 5-cycle.
func TestBuiltinSpecsMatchScenarios(t *testing.T) {
	type pair struct {
		builtin  string
		scenario func() (*scenario.Scenario, error)
		abstract bool
	}
	cases := []pair{
		{"figure1", scenario.Figure1, false},
		{"figure6", scenario.Figure6, false},
		{"pentagon", scenario.Pentagon, true},
	}
	for hops := 1; hops <= 8; hops++ {
		cases = append(cases, pair{fmt.Sprintf("chain:%d", hops), func() (*scenario.Scenario, error) { return scenario.Chain(hops) }, false})
	}
	for _, c := range cases {
		t.Run(c.builtin, func(t *testing.T) {
			spec, err := e2efair.BuiltinSpec(c.builtin)
			if err != nil {
				t.Fatal(err)
			}
			net, err := e2efair.NewNetwork(spec)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := c.scenario()
			if err != nil {
				t.Fatal(err)
			}
			got, want := net.Instance(), sc.Inst
			if !c.abstract {
				if !slices.Equal(net.Nodes(), sc.Topo.Names()) {
					t.Fatalf("nodes %v, scenario %v", net.Nodes(), sc.Topo.Names())
				}
				for i := range net.Nodes() {
					if p, q := got.Topo.Position(topology.NodeID(i)), want.Topo.Position(topology.NodeID(i)); p != q {
						t.Errorf("node %s at %v, scenario %v", net.Nodes()[i], p, q)
					}
				}
				if g, w := subflowNames(got), subflowNames(want); !slices.Equal(g, w) {
					t.Errorf("subflows %v, scenario %v", g, w)
				}
			}
			if g, w := cliqueNames(got), cliqueNames(want); !slices.Equal(g, w) {
				t.Errorf("cliques %v, scenario %v", g, w)
			}
			gotC, err := core.CentralizedAllocate(got, core.CentralizedOptions{Refine: true})
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := core.CentralizedAllocate(want, core.CentralizedOptions{Refine: true})
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "2PA-C", gotC, wantC)
			gotD, err := core.DistributedAllocate(got)
			if err != nil {
				t.Fatal(err)
			}
			wantD, err := core.DistributedAllocate(want)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "2PA-D", gotD.Shares, wantD.Shares)
		})
	}
}

func subflowNames(inst *core.Instance) []string {
	out := make([]string, inst.Graph.NumVertices())
	for v := range out {
		out[v] = inst.Graph.Subflow(v).ID.String()
	}
	return out
}

func cliqueNames(inst *core.Instance) []string {
	names := subflowNames(inst)
	out := make([]string, len(inst.Cliques))
	for i, c := range inst.Cliques {
		var members []string
		for _, v := range c {
			members = append(members, names[v])
		}
		out[i] = fmt.Sprint(members)
	}
	return out
}

func sameBits(t *testing.T, what string, got, want core.FlowAllocation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shares, scenario %d", what, len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: flow %s share %v, scenario %v", what, id, g, w)
		}
	}
}
