package core

import (
	"errors"
	"fmt"
	"sort"

	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/topology"
)

// The map-based distributed first phase is kept here as the reference
// the production Distributed is checked against. It builds each node's
// local LP from per-node and per-flow clique-index sets, counts every
// clique's subflows per flow ID, and drops duplicate rows by their
// serialized bits.

// DistributedOracle is DistributedAllocate run with the map-based
// local-LP builder.
func DistributedOracle(inst *Instance) (*DistributedResult, error) {
	// cliquesOf[v] = indices into inst.Cliques containing vertex v.
	cliquesOf := make([][]int, inst.Graph.NumVertices())
	for ci, c := range inst.Cliques {
		for _, v := range c {
			cliquesOf[v] = append(cliquesOf[v], ci)
		}
	}
	// Vertices transmitted by each node.
	ownVerts := make(map[topology.NodeID][]int)
	for v := 0; v < inst.Graph.NumVertices(); v++ {
		s := inst.Graph.Subflow(v)
		ownVerts[s.Src] = append(ownVerts[s.Src], v)
	}
	// constructed[node] = set of clique indices the node builds
	// locally: cliques containing one of its own subflows.
	constructed := make(map[topology.NodeID]map[int]bool)
	for node, verts := range ownVerts {
		set := make(map[int]bool)
		for _, v := range verts {
			for _, ci := range cliquesOf[v] {
				set[ci] = true
			}
		}
		constructed[node] = set
	}
	// Intra-flow propagation: constraint set of flow i = union of
	// constructed cliques over its transmitters.
	flowCliques := make(map[flow.ID]map[int]bool)
	for _, f := range inst.Flows.Flows() {
		set := make(map[int]bool)
		for _, s := range f.Subflows() {
			for ci := range constructed[s.Src] {
				// Keep only cliques that actually constrain this flow.
				if oracleCliqueMentions(inst, ci, f.ID()) {
					set[ci] = true
				}
			}
		}
		flowCliques[f.ID()] = set
	}

	// Distinct source nodes in first-flow order.
	var nodes []topology.NodeID
	nodeIdx := make(map[topology.NodeID]int)
	for _, f := range inst.Flows.Flows() {
		src := f.Source()
		if _, ok := nodeIdx[src]; !ok {
			nodeIdx[src] = len(nodes)
			nodes = append(nodes, src)
		}
	}
	s := newSession()
	locals := make([]*LocalProblem, len(nodes))
	for i, node := range nodes {
		local, err := oracleSolveLocal(inst, node, constructed[node], flowCliques, s)
		if err != nil {
			return nil, fmt.Errorf("core: distributed allocation at node %s: %w", inst.nodeName(node), err)
		}
		locals[i] = local
	}

	res := &DistributedResult{Shares: make(FlowAllocation, inst.Flows.Len())}
	res.Locals = append(res.Locals, locals...)
	for _, f := range inst.Flows.Flows() {
		local := locals[nodeIdx[f.Source()]]
		for i, id := range local.FlowIDs {
			if id == f.ID() {
				res.Shares[f.ID()] = local.Solution[i]
			}
		}
	}
	sort.Slice(res.Locals, func(a, b int) bool { return res.Locals[a].Node < res.Locals[b].Node })
	return res, nil
}

func oracleCliqueMentions(inst *Instance, ci int, id flow.ID) bool {
	for _, v := range inst.Cliques[ci] {
		if inst.Graph.Subflow(v).ID.Flow == id {
			return true
		}
	}
	return false
}

// oracleSolveLocal builds and solves the local LP at one node. The
// constraint set is the union, over flows the node transmits, of the
// flows' propagated clique sets; the denominator of the local basic
// share covers exactly the flows appearing in the node's own
// locally-constructed cliques.
func oracleSolveLocal(inst *Instance, node topology.NodeID, own map[int]bool, flowCliques map[flow.ID]map[int]bool, s *session) (*LocalProblem, error) {
	cliqueSet := make(map[int]bool)
	for v := 0; v < inst.Graph.NumVertices(); v++ {
		sf := inst.Graph.Subflow(v)
		if sf.Src != node {
			continue
		}
		for ci := range flowCliques[sf.ID.Flow] {
			cliqueSet[ci] = true
		}
	}
	// Variables: flows mentioned by any constraint, in instance order.
	mentioned := make(map[flow.ID]bool)
	for ci := range cliqueSet {
		for _, v := range inst.Cliques[ci] {
			mentioned[inst.Graph.Subflow(v).ID.Flow] = true
		}
	}
	var ids []flow.ID
	weightsByID := make(map[flow.ID]float64)
	for _, f := range inst.Flows.Flows() {
		if mentioned[f.ID()] {
			ids = append(ids, f.ID())
			weightsByID[f.ID()] = f.Weight()
		}
	}
	idx := make(map[flow.ID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	// Local basic-share denominator: flows in the node's own cliques.
	known := make(map[flow.ID]bool)
	for ci := range own {
		for _, v := range inst.Cliques[ci] {
			known[inst.Graph.Subflow(v).ID.Flow] = true
		}
	}
	var denom float64
	for _, f := range inst.Flows.Flows() {
		if known[f.ID()] {
			denom += f.Weight() * float64(f.VirtualLength())
		}
	}
	// Wider fallback denominator over every flow in the local LP.
	var denomAll float64
	for _, f := range inst.Flows.Flows() {
		if mentioned[f.ID()] {
			denomAll += f.Weight() * float64(f.VirtualLength())
		}
	}
	local := &LocalProblem{
		Node:    node,
		FlowIDs: ids,
		Basic:   make([]float64, len(ids)),
		Weights: make([]float64, len(ids)),
	}
	for i, id := range ids {
		if denom > 0 {
			local.Basic[i] = weightsByID[id] / denom
		}
		local.Weights[i] = weightsByID[id]
	}
	// Deterministic row order: sort clique indices.
	var cis []int
	for ci := range cliqueSet {
		cis = append(cis, ci)
	}
	sort.Ints(cis)
	seen := make(map[string]bool)
	for _, ci := range cis {
		counts := make(map[flow.ID]int)
		for _, v := range inst.Cliques[ci] {
			counts[inst.Graph.Subflow(v).ID.Flow]++
		}
		row := make([]float64, len(ids))
		for id, cnt := range counts {
			row[idx[id]] = float64(cnt)
		}
		key := string(appendFloats(nil, row))
		if seen[key] {
			continue
		}
		seen[key] = true
		local.Cliques = append(local.Cliques, row)
	}

	obj, err := s.load(local.Cliques, local.Basic, local.Weights)
	if errors.Is(err, lp.ErrInfeasible) && denomAll > 0 {
		for i, id := range ids {
			local.Basic[i] = weightsByID[id] / denomAll
		}
		obj, err = s.load(local.Cliques, local.Basic, local.Weights)
	}
	if err != nil {
		return nil, err
	}
	x, err := s.refineMaxMin(obj)
	if err != nil {
		return nil, err
	}
	local.Solution = x
	return local, nil
}
