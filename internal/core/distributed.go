package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/topology"
)

// LocalProblem is the local optimization a single node constructs in
// the distributed form of the first phase (Sec. IV-B): the cliques it
// knows about, the flows those cliques mention, and the local basic
// shares.
type LocalProblem struct {
	Node topology.NodeID
	// FlowIDs are the variables of the local LP, in instance flow
	// order.
	FlowIDs []flow.ID
	// Cliques are the constraint rows: per-flow subflow counts
	// n_{i,k}, aligned with FlowIDs.
	Cliques [][]float64
	// Basic holds the local basic-share lower bound per variable.
	Basic []float64
	// Weights holds w_i per variable.
	Weights []float64
	// Solution is filled in by DistributedAllocate: the locally
	// optimal shares per variable.
	Solution []float64
}

// DistributedResult carries the outcome of the distributed first
// phase.
type DistributedResult struct {
	// Shares is the adopted allocation: flow i takes the value
	// computed at its source node.
	Shares FlowAllocation
	// Locals records every node's local problem and solution, in
	// ascending node-ID order, for inspection (Table I of the paper).
	Locals []*LocalProblem
}

// DistributedAllocate runs the distributed form of the first phase.
// Each transmitting node constructs the maximal cliques involving its
// own subflows. These are locally constructible: every maximal clique
// through a subflow lies inside the subflow's closed contention
// neighborhood, whose members are overhearable by the transmitter
// (TestCliquesContainingIsLocal in internal/contention enumerates them
// from that neighborhood alone and proves the equivalence; this
// implementation reads the precomputed global list purely as an
// optimization). Nodes on the
// same flow propagate their cliques to each other (intra-flow exchange
// of constraints), so every node on flow F_i's path solves an LP whose
// constraint set is the union over the path of locally constructed
// cliques involving F_i. The local basic share divides B by
// Σ w_j·v_j over the flows the node itself overhears — a subset of the
// group, hence a (possibly) higher floor than the centralized form.
// Flow i adopts the share computed at its source node.
func DistributedAllocate(inst *Instance) (*DistributedResult, error) {
	return NewAllocatorWorkers(1).Distributed(inst)
}

// Distributed is DistributedAllocate on this Allocator's solver
// scratch. Source nodes solve their local LPs in first-flow order on
// the Allocator's first session, and the first failing node's error is
// returned.
//
// The instance's vertices and cliques are indexed by dense ordinals:
// flows by their position in inst.Flows, nodes in the order they first
// source a flow or transmit a subflow. A node's own cliques are those
// through a subflow it transmits; a flow's propagated cliques are its
// transmitters' own cliques that mention it; and a source's constraint
// set is the union of the propagated cliques of every flow it
// transmits.
func (a *Allocator) Distributed(inst *Instance) (*DistributedResult, error) {
	a.enterGuard()
	defer a.exitGuard()
	flows := inst.Flows.Flows()
	vflow := inst.vertexFlows()
	nk := len(inst.Cliques)

	// Sources take ordinals [0, sources) in first-flow order.
	var nodes []topology.NodeID
	var nodeOrd []int32 // by NodeID; −1 = not seen
	ordinal := func(u topology.NodeID) int32 {
		for int(u) >= len(nodeOrd) {
			nodeOrd = append(nodeOrd, -1)
		}
		if nodeOrd[u] < 0 {
			nodeOrd[u] = int32(len(nodes))
			nodes = append(nodes, u)
		}
		return nodeOrd[u]
	}
	srcOf := make([]int32, len(flows))
	for k, f := range flows {
		srcOf[k] = ordinal(f.Source())
	}
	sources := len(nodes)
	vnode := make([]int32, len(vflow))
	for v := range vnode {
		vnode[v] = ordinal(inst.Graph.Subflow(v).Src)
	}

	own := newMasks(len(nodes), nk)           // node → cliques through its subflows
	sends := newMasks(len(nodes), len(flows)) // node → flows it transmits
	members := newMasks(nk, len(flows))       // clique → flows it mentions
	mentions := newMasks(len(flows), nk)      // flow → cliques mentioning it
	for ci, c := range inst.Cliques {
		for _, v := range c {
			own[vnode[v]].set(ci)
			if k := vflow[v]; k >= 0 {
				members[ci].set(int(k))
				mentions[k].set(ci)
			}
		}
	}
	// Intra-flow propagation: flow k's constraint set is the union of
	// its transmitters' own cliques that mention it.
	prop := newMasks(len(flows), nk)
	for v, k := range vflow {
		if k >= 0 {
			prop[k].or(own[vnode[v]])
			sends[vnode[v]].set(int(k))
		}
	}
	for k := range prop {
		prop[k].and(mentions[k])
	}

	// The floors are computed from the weights scaled once (see
	// scaleWeights): exact, so they equal w_i/Σ w_j·v_j bit for bit
	// wherever that does not overflow.
	scaled := a.flowWeights[:0]
	for _, f := range flows {
		scaled = append(scaled, f.Weight())
	}
	scaleWeights(scaled)
	a.flowWeights = scaled
	res := &DistributedResult{Shares: make(FlowAllocation, len(flows))}
	cons := newMasks(1, nk)[0] // the source's constraint cliques
	flowSets := newMasks(2, len(flows))
	mentioned, known := flowSets[0], flowSets[1] // flows in cons, and in its own cliques
	pos := make([]int32, len(flows))
	for u := 0; u < sources; u++ {
		clear(cons)
		sends[u].each(func(k int) { cons.or(prop[k]) })
		clear(mentioned)
		cons.each(func(ci int) { mentioned.or(members[ci]) })
		clear(known)
		own[u].each(func(ci int) { known.or(members[ci]) })

		local := &LocalProblem{Node: nodes[u]}
		var denom, denomAll float64
		lw := a.localWeights[:0]
		for k, f := range flows {
			pos[k] = -1
			if known.has(k) {
				denom += scaled[k] * float64(f.VirtualLength())
			}
			if mentioned.has(k) {
				denomAll += scaled[k] * float64(f.VirtualLength())
				pos[k] = int32(len(local.FlowIDs))
				local.FlowIDs = append(local.FlowIDs, f.ID())
				local.Weights = append(local.Weights, f.Weight())
				lw = append(lw, scaled[k])
			}
		}
		a.localWeights = lw
		local.Basic = make([]float64, len(local.Weights))
		if denom > 0 {
			for i, w := range lw {
				local.Basic[i] = w / denom
			}
		}
		// One row per constraint clique, in clique order; a row equal
		// to an earlier one is the same constraint and is dropped.
		cons.each(func(ci int) {
			row := make([]float64, len(local.FlowIDs))
			for _, v := range inst.Cliques[ci] {
				if k := vflow[v]; k >= 0 {
					row[pos[k]]++
				}
			}
			for _, r := range local.Cliques {
				if slices.Equal(r, row) {
					return
				}
			}
			local.Cliques = append(local.Cliques, row)
		})
		if err := a.sessions[0].solveLocal(local, lw, denomAll); err != nil {
			return nil, fmt.Errorf("core: distributed allocation at node %s: %w", inst.nodeName(nodes[u]), err)
		}
		res.Locals = append(res.Locals, local)
		for k, f := range flows {
			if srcOf[k] == int32(u) && pos[k] >= 0 {
				res.Shares[f.ID()] = local.Solution[pos[k]]
			}
		}
	}
	slices.SortFunc(res.Locals, func(a, b *LocalProblem) int { return cmp.Compare(a.Node, b.Node) })
	return res, nil
}

func (inst *Instance) nodeName(id topology.NodeID) string {
	if inst.Topo == nil {
		return fmt.Sprintf("%d", id)
	}
	return inst.Topo.Name(id)
}

// solveLocal solves one node's local LP on the session and stores the
// max-min refined optimum in local.Solution. The optimistic local
// floor (denominator restricted to the flows the node overhears) can
// clash with a propagated clique that outweighs it; the floors are
// then widened to w_i/denomAll over every flow in the local LP. A
// clique holds at most v_i subflows of flow i, so the widened floors
// fit every clique and the retry is feasible. weights are the local
// flows' weights as the floors are computed from them; the LP sees
// them scaled again for this node (scaleWeights).
func (s *session) solveLocal(local *LocalProblem, weights []float64, denomAll float64) error {
	s.scaled = append(s.scaled[:0], weights...)
	scaleWeights(s.scaled)
	obj, err := s.load(local.Cliques, local.Basic, s.scaled)
	if errors.Is(err, lp.ErrInfeasible) && denomAll > 0 {
		for i, w := range weights {
			local.Basic[i] = w / denomAll
		}
		obj, err = s.load(local.Cliques, local.Basic, s.scaled)
	}
	if err != nil {
		return err
	}
	local.Solution, err = s.refineMaxMin(obj)
	return err
}

// mask is a bitset over clique or flow ordinals.
type mask []uint64

// newMasks carves n zeroed masks of width bits from one backing array.
func newMasks(n, width int) []mask {
	w := (width + 63) >> 6
	backing := make([]uint64, n*w)
	out := make([]mask, n)
	for i := range out {
		out[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

func (m mask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m mask) has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m mask) or(o mask) {
	for i := range m {
		m[i] |= o[i]
	}
}

func (m mask) and(o mask) {
	for i := range m {
		m[i] &= o[i]
	}
}

// each calls fn with every member, ascending.
func (m mask) each(fn func(int)) {
	for wi, w := range m {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
