// Package e2efair implements end-to-end fair bandwidth allocation for
// multi-hop wireless ad hoc networks, reproducing Baochun Li,
// "End-to-End Fair Bandwidth Allocation in Multi-hop Wireless Ad Hoc
// Networks" (ICDCS 2005).
//
// The package computes channel shares for multi-hop flows that
// maximize total end-to-end throughput subject to basic fairness
// (every flow gets at least w_i·B/Σ w_j·v_j), via the paper's
// two-phase algorithm (2PA): a first phase that solves a linear
// program over the maximal cliques of the subflow contention graph —
// centrally or distributedly — and a second phase that realizes the
// shares with a distributed backoff-based packet scheduler. A
// packet-level wireless simulator (802.11-style DCF with RTS/CTS) and
// the two-tier fair scheduling baseline are included for evaluation.
//
// Quick start:
//
//	net, err := e2efair.NewNetwork(e2efair.NetworkSpec{
//	    Nodes: []e2efair.NodeSpec{{Name: "A", X: 0}, {Name: "B", X: 200}, {Name: "C", X: 400}},
//	    Flows: []e2efair.FlowSpec{{ID: "F1", Path: []string{"A", "B", "C"}, Weight: 1}},
//	})
//	alloc, err := net.Allocate(e2efair.StrategyCentralized)
//	res, err := net.Simulate(e2efair.SimConfig{Protocol: e2efair.Protocol2PAC, DurationSec: 100})
package e2efair

import (
	"errors"
	"fmt"
	"sort"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

// DefaultTxRange is the paper's 250 m transmission range.
const DefaultTxRange = topology.DefaultRange

// NodeSpec places one named node on the plane (meters).
type NodeSpec = scenario.NodeSpec

// FlowSpec declares one end-to-end flow. Path lists node names from
// source to destination; with AutoRoute only the endpoints are needed
// and the shortest path is used. Weight defaults to 1.
type FlowSpec = scenario.FlowSpec

// NetworkSpec describes a network: nodes, flows and radio ranges
// (TxRange defaults to 250 m, InterferenceRange to TxRange).
type NetworkSpec = scenario.NetworkSpec

// Network is a validated network instance ready for allocation and
// simulation.
type Network struct {
	inst *core.Instance
}

// ErrEmptySpec is returned for specs without nodes or flows.
var ErrEmptySpec = errors.New("e2efair: spec needs at least one node and one flow")

// NewNetwork validates the spec, routes flows, and derives the
// contention structure.
func NewNetwork(spec NetworkSpec) (*Network, error) {
	if len(spec.Nodes) == 0 || len(spec.Flows) == 0 {
		return nil, ErrEmptySpec
	}
	topo, err := scenario.Topology(spec)
	if err != nil {
		return nil, fmt.Errorf("e2efair: %w", err)
	}
	return networkOn(spec, topo)
}

// Strategy selects an allocation algorithm.
type Strategy int

// Allocation strategies.
const (
	// StrategyBasic yields every flow's basic share w_i/Σ w_j·v_j.
	StrategyBasic Strategy = iota + 1
	// StrategyFairness is the strict fairness-constraint allocation
	// w_i·B/ω_Ω (the Prop. 1 upper bound).
	StrategyFairness
	// StrategyCentralized is the paper's centralized first phase: the
	// basic-fairness LP with max-min refinement (2PA-C).
	StrategyCentralized
	// StrategyDistributed is the distributed first phase (2PA-D).
	StrategyDistributed
	// StrategyMaxMin is weighted max-min progressive filling over the
	// clique constraints.
	StrategyMaxMin
	// StrategySingleHop divides B across subflows by weighted flow
	// length (Eq. 2) — the strawman penalizing long flows.
	StrategySingleHop
	// StrategyTwoTier is the per-subflow two-tier baseline of Luo et
	// al.
	StrategyTwoTier
)

var strategyNames = map[Strategy]string{
	StrategyBasic:       "basic",
	StrategyFairness:    "fairness",
	StrategyCentralized: "2pa-c",
	StrategyDistributed: "2pa-d",
	StrategyMaxMin:      "maxmin",
	StrategySingleHop:   "singlehop",
	StrategyTwoTier:     "two-tier",
}

// String names the strategy.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("e2efair: unknown strategy %q", name)
}

// Strategies lists all strategies in a stable order.
func Strategies() []Strategy {
	return []Strategy{
		StrategyBasic, StrategyFairness, StrategyCentralized,
		StrategyDistributed, StrategyMaxMin, StrategySingleHop, StrategyTwoTier,
	}
}

// Allocation is the result of an allocation strategy. Shares are
// fractions of the channel capacity B.
type Allocation struct {
	Strategy Strategy
	// PerFlow maps flow ID to its per-subflow share r̂_i, which under
	// equal per-hop allocation is also its end-to-end throughput.
	PerFlow map[string]float64
	// PerSubflow maps "flow.hop" (1-based hop, the paper's F_{i.j}
	// notation) to the subflow's share.
	PerSubflow map[string]float64
	// Total is Σ_i u_i, the total effective throughput.
	Total float64
}

// Allocate runs the selected strategy.
func (n *Network) Allocate(s Strategy) (*Allocation, error) {
	var perFlow core.FlowAllocation
	var perSub core.SubflowAllocation
	var err error
	switch s {
	case StrategyBasic:
		perFlow = core.BasicShares(n.inst)
	case StrategyFairness:
		perFlow = core.FairnessConstrained(n.inst)
	case StrategyCentralized:
		perFlow, err = core.CentralizedAllocate(n.inst, core.CentralizedOptions{Refine: true})
	case StrategyDistributed:
		var res *core.DistributedResult
		res, err = core.DistributedAllocate(n.inst)
		if res != nil {
			perFlow = res.Shares
		}
	case StrategyMaxMin:
		perFlow = core.MaxMinAllocate(n.inst)
	case StrategySingleHop:
		perFlow = core.SingleHopShares(n.inst)
	case StrategyTwoTier:
		perSub = core.TwoTierAllocate(n.inst)
		perFlow = perSub.EndToEnd(n.inst.Flows)
	default:
		return nil, fmt.Errorf("e2efair: unknown strategy %d", int(s))
	}
	if err != nil {
		return nil, fmt.Errorf("e2efair: allocate %s: %w", s, err)
	}
	if perSub == nil {
		perSub = perFlow.Uniform(n.inst.Flows)
	}
	out := &Allocation{
		Strategy:   s,
		PerFlow:    make(map[string]float64, len(perFlow)),
		PerSubflow: make(map[string]float64, len(perSub)),
	}
	for id, r := range perFlow {
		out.PerFlow[string(id)] = r
	}
	for _, f := range n.inst.Flows.Flows() {
		out.Total += perFlow[f.ID()]
	}
	for id, r := range perSub {
		out.PerSubflow[id.String()] = r
	}
	return out, nil
}

// ContentionReport summarizes the derived contention structure.
type ContentionReport struct {
	// Subflows lists every subflow in F_{i.j} notation.
	Subflows []string
	// Edges lists contending subflow pairs.
	Edges [][2]string
	// Cliques lists the maximal cliques Ω_k.
	Cliques [][]string
	// FlowGroups lists contending flow groups.
	FlowGroups [][]string
	// WeightedCliqueNumber is ω_Ω over the whole graph.
	WeightedCliqueNumber float64
	// Colors is a proper colouring of the contention graph; subflows
	// of equal colour can transmit concurrently.
	Colors map[string]int
}

// Contention reports the network's contention structure.
func (n *Network) Contention() *ContentionReport {
	g := n.inst.Graph
	rep := &ContentionReport{Colors: make(map[string]int)}
	for i := 0; i < g.NumVertices(); i++ {
		rep.Subflows = append(rep.Subflows, g.Subflow(i).ID.String())
	}
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			if g.Adjacent(i, j) {
				rep.Edges = append(rep.Edges, [2]string{rep.Subflows[i], rep.Subflows[j]})
			}
		}
	}
	for _, c := range n.inst.Cliques {
		var names []string
		for _, v := range c {
			names = append(names, rep.Subflows[v])
		}
		rep.Cliques = append(rep.Cliques, names)
	}
	for _, grp := range core.FlowGroups(n.inst) {
		var names []string
		for _, id := range grp {
			names = append(names, string(id))
		}
		rep.FlowGroups = append(rep.FlowGroups, names)
	}
	rep.WeightedCliqueNumber = core.WeightedCliqueNumber(n.inst)
	colors, _ := g.GreedyColoring()
	for i, c := range colors {
		rep.Colors[rep.Subflows[i]] = c
	}
	return rep
}

// Flows returns the flow IDs in insertion order.
func (n *Network) Flows() []string {
	out := make([]string, 0, n.inst.Flows.Len())
	for _, f := range n.inst.Flows.Flows() {
		out = append(out, string(f.ID()))
	}
	return out
}

// FlowWeight returns a flow's weight w_i.
func (n *Network) FlowWeight(id string) (float64, error) {
	f, err := n.inst.Flows.Get(flow.ID(id))
	if err != nil {
		return 0, err
	}
	return f.Weight(), nil
}

// FlowPath returns the node-name path of a flow.
func (n *Network) FlowPath(id string) ([]string, error) {
	f, err := n.inst.Flows.Get(flow.ID(id))
	if err != nil {
		return nil, err
	}
	path := f.Path()
	out := make([]string, len(path))
	for i, nid := range path {
		out[i] = n.inst.Topo.Name(nid)
	}
	return out, nil
}

// Nodes returns node names in insertion order.
func (n *Network) Nodes() []string { return n.inst.Topo.Names() }

// Instance exposes the underlying allocation instance for advanced
// integrations within this module.
func (n *Network) Instance() *core.Instance { return n.inst }

// Graph exposes the subflow contention graph.
func (n *Network) Graph() *contention.Graph { return n.inst.Graph }

// String renders the allocation as "id=share" pairs in sorted order.
func (a *Allocation) String() string {
	keys := sortedKeys(a.PerFlow)
	s := fmt.Sprintf("%s: total=%.4f", a.Strategy, a.Total)
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%.4f", k, a.PerFlow[k])
	}
	return s
}

// sortedKeys returns map keys sorted, for deterministic rendering.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
