// Package analysis produces human-readable reports about an
// allocation instance: the contention structure, every allocation
// strategy side by side, the Prop. 1 bound and its schedulability, and
// the binding cliques (the spatial bottlenecks) of the optimal
// solution. It also renders the subflow contention graph in Graphviz
// DOT form.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"e2efair/internal/core"
	"e2efair/internal/flow"
)

// Report summarizes one instance.
type Report struct {
	NumFlows    int
	NumSubflows int
	NumCliques  int
	FlowGroups  [][]flow.ID
	// OmegaWeighted is ω_Ω over the whole graph.
	OmegaWeighted float64
	// Strategies maps strategy name to per-flow shares.
	Strategies map[string]core.FlowAllocation
	// Totals maps strategy name to total effective throughput.
	Totals map[string]float64
	// UpperBound is the Prop. 1 total.
	UpperBound float64
	// UpperBoundSchedulable reports whether the Prop. 1 rates admit a
	// schedule (false for pentagon-like structures).
	UpperBoundSchedulable bool
	// MaxSchedulableFair is the largest schedulable symmetric
	// per-unit-weight rate.
	MaxSchedulableFair float64
	// BindingCliques lists, for the centralized optimum, the cliques
	// loaded to capacity — the spatial bottlenecks.
	BindingCliques [][]flow.SubflowID
}

// Analyze builds the report.
func Analyze(inst *core.Instance) (*Report, error) {
	rep := &Report{
		NumFlows:      inst.Flows.Len(),
		NumSubflows:   inst.Graph.NumVertices(),
		NumCliques:    len(inst.Cliques),
		FlowGroups:    core.FlowGroups(inst),
		OmegaWeighted: core.WeightedCliqueNumber(inst),
		Strategies:    make(map[string]core.FlowAllocation),
		Totals:        make(map[string]float64),
	}

	centralized, err := core.CentralizedAllocate(inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return nil, err
	}
	distributed, err := core.DistributedAllocate(inst)
	if err != nil {
		return nil, err
	}
	twoTier := core.TwoTierAllocate(inst).EndToEnd(inst.Flows)
	strategies := map[string]core.FlowAllocation{
		"basic":     core.BasicShares(inst),
		"fairness":  core.FairnessConstrained(inst),
		"2pa-c":     centralized,
		"2pa-d":     distributed.Shares,
		"maxmin":    core.MaxMinAllocate(inst),
		"singlehop": core.SingleHopShares(inst),
		"two-tier":  twoTier,
	}
	for name, alloc := range strategies {
		rep.Strategies[name] = alloc
		rep.Totals[name] = alloc.TotalEffectiveThroughput()
	}
	rep.UpperBound = core.UpperBoundTotal(inst)

	// Schedulability of the Prop. 1 rates.
	fair := strategies["fairness"]
	rates := make([]float64, inst.Graph.NumVertices())
	for v := 0; v < inst.Graph.NumVertices(); v++ {
		rates[v] = fair[inst.Graph.Subflow(v).ID.Flow]
	}
	sched, err := core.CheckSchedulable(inst.Graph, rates)
	if err != nil {
		return nil, err
	}
	rep.UpperBoundSchedulable = sched.Feasible
	tMax, err := core.MaxSchedulableFairRate(inst.Graph)
	if err != nil {
		return nil, err
	}
	rep.MaxSchedulableFair = tMax

	// Binding cliques of the centralized optimum.
	const bindTol = 1e-6
	for _, c := range inst.Cliques {
		var load float64
		var members []flow.SubflowID
		for _, v := range c {
			sf := inst.Graph.Subflow(v)
			load += centralized[sf.ID.Flow]
			members = append(members, sf.ID)
		}
		if load >= 1-bindTol {
			rep.BindingCliques = append(rep.BindingCliques, members)
		}
	}
	return rep, nil
}

// Render prints the report as text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flows: %d, subflows: %d, maximal cliques: %d, ω_Ω = %g\n",
		r.NumFlows, r.NumSubflows, r.NumCliques, r.OmegaWeighted)
	fmt.Fprintf(&b, "contending flow groups: %v\n", r.FlowGroups)
	fmt.Fprintf(&b, "Prop.1 upper bound: %.4f·B (schedulable: %v; max schedulable fair rate %.4f·B)\n",
		r.UpperBound, r.UpperBoundSchedulable, r.MaxSchedulableFair)

	names := make([]string, 0, len(r.Strategies))
	for n := range r.Strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	var ids []flow.ID
	for id := range r.Strategies["basic"] {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, c int) bool { return ids[a] < ids[c] })
	fmt.Fprintf(&b, "%-10s %8s", "strategy", "total")
	for _, id := range ids {
		fmt.Fprintf(&b, " %8s", id)
	}
	b.WriteString("\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%-10s %8.4f", n, r.Totals[n])
		for _, id := range ids {
			fmt.Fprintf(&b, " %8.4f", r.Strategies[n][id])
		}
		b.WriteString("\n")
	}
	if len(r.BindingCliques) > 0 {
		b.WriteString("binding cliques under 2pa-c (spatial bottlenecks):\n")
		for _, c := range r.BindingCliques {
			var names []string
			for _, id := range c {
				names = append(names, id.String())
			}
			fmt.Fprintf(&b, "  {%s}\n", strings.Join(names, ", "))
		}
	}
	return b.String()
}

// DOT renders the subflow contention graph in Graphviz DOT format,
// with one cluster per contending flow group and edge styling for
// intra-flow contention.
func DOT(inst *core.Instance) string {
	g := inst.Graph
	var b strings.Builder
	b.WriteString("graph contention {\n  layout=neato;\n  node [shape=ellipse, fontsize=11];\n")
	for i := 0; i < g.NumVertices(); i++ {
		s := g.Subflow(i)
		fmt.Fprintf(&b, "  v%d [label=\"%s\\nw=%g\"];\n", i, s.ID, s.Weight)
	}
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			if !g.Adjacent(i, j) {
				continue
			}
			style := ""
			if g.Subflow(i).ID.Flow == g.Subflow(j).ID.Flow {
				style = " [style=dashed]"
			}
			fmt.Fprintf(&b, "  v%d -- v%d%s;\n", i, j, style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
