package core

import (
	"math"

	"e2efair/internal/contention"
)

// TwoTierAllocate reproduces the two-tier fair scheduling baseline of
// Luo et al. [1], which the paper compares against: each single-hop
// subflow is guaranteed its basic (weighted) fair share of the channel
// within its contending group, and during each subflow's guaranteed
// slot the subflows independent of it reuse the slot spatially,
// sharing it by weighted max-min among themselves. On the paper's
// Fig. 1 example this yields exactly (3B/4, B/4, 3B/8, 3B/8).
//
// The returned allocation is per subflow; the baseline deliberately
// ignores the intra-flow coupling of multi-hop flows, which is what
// the paper's 2PA improves on.
func TwoTierAllocate(inst *Instance) SubflowAllocation {
	out := make(SubflowAllocation, inst.Graph.NumVertices())
	for _, comp := range inst.Graph.Components() {
		twoTierComponent(inst.Graph, comp, out)
	}
	return out
}

// twoTierComponent allocates one connected component of the subflow
// contention graph.
func twoTierComponent(g *contention.Graph, comp []int, out SubflowAllocation) {
	var wsum float64
	for _, v := range comp {
		wsum += g.Subflow(v).Weight
	}
	if wsum == 0 {
		return
	}
	// Tier 1: guaranteed slots.
	slot := make(map[int]float64, len(comp))
	for _, v := range comp {
		slot[v] = g.Subflow(v).Weight / wsum
		out[g.Subflow(v).ID] += slot[v]
	}
	// Tier 2: spatial reuse of each guaranteed slot by non-contending
	// subflows.
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	for _, owner := range comp {
		var free []int
		for _, v := range comp {
			if v == owner || g.Adjacent(owner, v) {
				continue
			}
			free = append(free, v)
		}
		if len(free) == 0 {
			continue
		}
		sub := g.InducedSubgraph(free)
		extra := fillSubgraph(sub, slot[owner])
		for i, v := range free {
			out[g.Subflow(v).ID] += extra[i]
		}
	}
}

// fillSubgraph runs weighted progressive filling over the maximal
// cliques of a contention subgraph with per-clique capacity cap,
// returning the rate of each vertex.
func fillSubgraph(g *contention.Graph, cap float64) []float64 {
	cliques := g.MaximalCliques()
	rows := make([][]float64, len(cliques))
	caps := make([]float64, len(cliques))
	for k, c := range cliques {
		row := make([]float64, g.NumVertices())
		for _, v := range c {
			row[v] = 1
		}
		rows[k] = row
		caps[k] = cap
	}
	weights := make([]float64, g.NumVertices())
	for v := range weights {
		weights[v] = g.Subflow(v).Weight
	}
	return ProgressiveFilling(rows, caps, weights)
}

// ProgressiveFilling computes the weighted max-min fair rate vector
// under linear capacity constraints rows·x ≤ caps: all rates grow in
// proportion to their weights until a constraint saturates, at which
// point the variables in that constraint freeze; the rest continue.
// Variables appearing in no row are left at zero (they have no
// capacity to draw from). The classic water-filling algorithm, used
// here both for the two-tier baseline's slot reuse and as a standalone
// max-min allocator.
func ProgressiveFilling(rows [][]float64, caps []float64, weights []float64) []float64 {
	n := len(weights)
	x := make([]float64, n)
	frozen := make([]bool, n)
	// Variables with zero weight or no constraint row never grow.
	covered := make([]bool, n)
	for _, row := range rows {
		for i, a := range row {
			if a > 0 {
				covered[i] = true
			}
		}
	}
	active := 0
	for i := 0; i < n; i++ {
		if !covered[i] || weights[i] <= 0 {
			frozen[i] = true
		} else {
			active++
		}
	}
	used := make([]float64, len(rows))
	for active > 0 {
		// Growth rate of each row's usage.
		delta := math.Inf(1)
		for k, row := range rows {
			var rate float64
			for i, a := range row {
				if a > 0 && !frozen[i] {
					rate += a * weights[i]
				}
			}
			if rate <= 0 {
				continue
			}
			d := (caps[k] - used[k]) / rate
			if d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			break // no unfrozen variable is constrained; defensive
		}
		if delta < 0 {
			delta = 0
		}
		for i := 0; i < n; i++ {
			if !frozen[i] {
				x[i] += weights[i] * delta
			}
		}
		for k, row := range rows {
			var add float64
			for i, a := range row {
				if a > 0 && !frozen[i] {
					add += a * weights[i] * delta
				}
			}
			used[k] += add
		}
		// Freeze every unfrozen variable in a saturated row.
		for k, row := range rows {
			if caps[k]-used[k] > fillTol {
				continue
			}
			for i, a := range row {
				if a > 0 && !frozen[i] {
					frozen[i] = true
					active--
				}
			}
		}
	}
	return x
}

// fillTol is the saturation tolerance of ProgressiveFilling.
const fillTol = 1e-12

// MaxMinAllocate computes the weighted max-min fair per-flow
// allocation over the instance's clique constraints (every subflow of
// flow i carrying r̂_i), as an alternative strategy to the paper's
// total-throughput LP: progressive filling over rows
// Σ_i n_{i,k}·r̂_i ≤ B.
func MaxMinAllocate(inst *Instance) FlowAllocation {
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		caps := make([]float64, g.nrows)
		for k := range caps {
			caps[k] = 1
		}
		x := ProgressiveFilling(g.lpRows(), caps, g.weights)
		for i, id := range g.ids {
			out[id] = x[i]
		}
	}
	return out
}
