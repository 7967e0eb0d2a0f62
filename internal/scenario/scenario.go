// Package scenario is the home of network specs and constructs the
// canonical problem instances of the paper: the Fig. 1 two-flow
// topology, the Fig. 2 fairness examples, the Fig. 3 chain, the Fig. 4
// weighted contention graph, the Fig. 5 pentagon, and the Fig. 6 /
// Table I five-flow topology, plus random instances for property tests
// and ablations.
//
// One table of named specs (BuiltinSpec) serves the library facade
// and the command-line tools, and one builder (Build) turns any spec
// into an instance. Geometric scenarios are Build applied to a spec
// whose node placement makes the unit-disk contention rule (250 m
// transmission range) reproduce the paper's subflow contention graphs
// exactly; abstract scenarios (Fig. 2(b,c), Fig. 4, Fig. 5) are
// specified directly as contention graphs, as the paper does.
package scenario

import (
	"fmt"
	"math/rand"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// Scenario is a named, ready-to-allocate problem instance. Geometric
// scenarios carry a topology; abstract ones have a nil Topo and only
// the contention structure.
type Scenario struct {
	Name  string
	Topo  *topology.Topology
	Flows *flow.Set
	Inst  *core.Instance
}

// Figure1 builds the paper's Fig. 1 network from Figure1Spec.
func Figure1() (*Scenario, error) { return Build("figure1", Figure1Spec()) }

// Figure2Single builds Fig. 2(a): two contending single-hop flows
// with weights 2 and 1, whose fair allocation is (2B/3, B/3).
func Figure2Single() (*Scenario, error) {
	return Build("figure2a", NetworkSpec{
		Nodes: []NodeSpec{{Name: "A", X: 0, Y: 0}, {Name: "B", X: 200, Y: 0}, {Name: "C", X: 100, Y: 150}, {Name: "D", X: 300, Y: 150}},
		Flows: []FlowSpec{{ID: "F1", Weight: 2, Path: []string{"A", "B"}}, {ID: "F2", Weight: 1, Path: []string{"C", "D"}}},
	})
}

// Figure2Multi builds Fig. 2(b,c): a one-hop flow F1 (weight 2) and a
// three-hop flow F2 (weight 1) whose four subflows all contend in one
// local channel. The structure is abstract, as in the paper.
func Figure2Multi() (*Scenario, error) {
	f1, err := flow.New("F1", 2, []topology.NodeID{0, 1})
	if err != nil {
		return nil, err
	}
	f2, err := flow.New("F2", 1, []topology.NodeID{2, 3, 4, 5})
	if err != nil {
		return nil, err
	}
	return assembleAbstract("figure2c", completeEdges, f1, f2)
}

// Chain builds ChainSpec(hops): one flow along a straight line with
// 200 m spacing (Fig. 3(c) uses six hops). Skip-one neighbors are in
// range, so the contention graph is the square of a path,
// three-colourable for any length.
func Chain(hops int) (*Scenario, error) {
	if hops < 1 {
		return nil, fmt.Errorf("scenario: chain needs at least one hop, got %d", hops)
	}
	return Build(fmt.Sprintf("chain%d", hops), ChainSpec(hops))
}

// Figure4 builds the weighted subflow contention graph of Fig. 4:
// flows (F1, F2, F3, F4) with weights (1, 2, 3, 2), F2 two-hop and the
// rest single-hop, with maximal cliques {F1.1, F2.1, F2.2, F3.1} and
// {F3.1, F4.1}.
func Figure4() (*Scenario, error) {
	f1, err := flow.New("F1", 1, []topology.NodeID{0, 1})
	if err != nil {
		return nil, err
	}
	f2, err := flow.New("F2", 2, []topology.NodeID{2, 3, 4})
	if err != nil {
		return nil, err
	}
	f3, err := flow.New("F3", 3, []topology.NodeID{5, 6})
	if err != nil {
		return nil, err
	}
	f4, err := flow.New("F4", 2, []topology.NodeID{7, 8})
	if err != nil {
		return nil, err
	}
	// Vertex order: F1.1, F2.1, F2.2, F3.1, F4.1.
	edges := func(n int) [][2]int {
		return [][2]int{
			{0, 1}, {0, 2}, {0, 3},
			{1, 2}, {1, 3},
			{2, 3},
			{3, 4},
		}
	}
	return assembleAbstract("figure4", edges, f1, f2, f3, f4)
}

// Pentagon builds Fig. 5: five unit-weight single-hop flows whose
// contention graph is a 5-cycle. Its weighted clique number is 2, so
// Prop. 1 allows B/2 per flow, yet no schedule achieves it.
func Pentagon() (*Scenario, error) {
	flows := make([]*flow.Flow, 5)
	for i := range flows {
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", i+1)), 1,
			[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
		if err != nil {
			return nil, err
		}
		flows[i] = f
	}
	edges := func(n int) [][2]int {
		return [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	}
	return assembleAbstract("pentagon", edges, flows...)
}

// Figure6 builds the paper's Fig. 6 / Table I network from
// Figure6Spec.
func Figure6() (*Scenario, error) { return Build("figure6", Figure6Spec()) }

// completeEdges yields the edge list of the complete graph on n
// vertices.
func completeEdges(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// assembleAbstract builds a scenario from flows plus an explicit
// contention edge generator over their subflows (in flow order, hop
// order).
func assembleAbstract(name string, edges func(n int) [][2]int, flows ...*flow.Flow) (*Scenario, error) {
	set, err := flow.NewSet(flows...)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	subs := set.Subflows()
	g, err := contention.NewGraphFromEdges(subs, edges(len(subs)))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	inst, err := core.NewInstanceFromGraph(set, g)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	return &Scenario{Name: name, Flows: set, Inst: inst}, nil
}

// RandomConfig controls random scenario generation.
type RandomConfig struct {
	Nodes   int     // nodes in the area
	Flows   int     // number of flows to route
	Width   float64 // area width, meters
	Height  float64 // area height, meters
	MaxHops int     // reject routes longer than this (0 = no limit)
}

// Random generates a connected random topology and routes the given
// number of flows between random distinct endpoints along shortest
// paths, skipping pairs whose shortest path has a shortcut (which
// cannot happen for true shortest paths) or exceeds MaxHops.
func Random(cfg RandomConfig, rng *rand.Rand) (*Scenario, error) {
	topo, err := topology.Random(topology.RandomConfig{
		Nodes:   cfg.Nodes,
		Width:   cfg.Width,
		Height:  cfg.Height,
		Connect: true,
	}, rng)
	if err != nil {
		return nil, err
	}
	tbl := routing.BuildTable(topo)
	set, err := flow.NewSet()
	if err != nil {
		return nil, err
	}
	added := 0
	for attempt := 0; attempt < cfg.Flows*50 && added < cfg.Flows; attempt++ {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		if src == dst {
			continue
		}
		path, err := tbl.Route(src, dst)
		if err != nil {
			continue
		}
		if cfg.MaxHops > 0 && len(path)-1 > cfg.MaxHops {
			continue
		}
		if routing.ValidatePath(topo, path) != nil {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", added+1)), 1, path)
		if err != nil {
			continue
		}
		if err := set.Add(f); err != nil {
			return nil, err
		}
		added++
	}
	if added == 0 {
		return nil, fmt.Errorf("scenario: no routable flows in random instance")
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		return nil, err
	}
	return &Scenario{Name: "random", Topo: topo, Flows: set, Inst: inst}, nil
}
