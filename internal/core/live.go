package core

import (
	"e2efair/internal/contention"
	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// Live is an allocation instance kept current across flow churn: the
// contention graph and its maximal cliques are updated by each call's
// delta (contention.Live) instead of being rebuilt, and each Update
// returns an immutable Instance over the new flow set that is
// byte-identical to NewInstance over the same set. NewInstance itself
// is a Live built once from empty, so both paths share one builder.
//
// Update does not validate paths: callers admit flows through the same
// checks NewInstance applies before handing them over, or hand over
// routes built hop by hop over radio links (the simulator's route
// repair). A Live is not safe for concurrent use.
type Live struct {
	topo  *topology.Topology
	cg    *contention.Live
	flows []*flow.Flow // flows the graph holds, in vertex order

	drop []int
	add  []flow.Subflow
}

// NewLive returns an empty live instance over the topology.
func NewLive(topo *topology.Topology) *Live {
	return &Live{topo: topo, cg: contention.NewLive(topo)}
}

// Update brings the live state to the flows of set, in set order, and
// returns the instance over them. Flows are matched by identity: live
// flows that set no longer lists in order leave the graph (their
// subflow vertices are cut out), and the unmatched tail of set joins
// it. Serving churn — removals anywhere, registrations appended —
// therefore costs only the changed flows' neighborhoods; any other
// reordering is still exact, just less local. Returned instances never
// alias the live state.
func (l *Live) Update(set *flow.Set) *Instance {
	l.sync(set.Flows())
	g, cliques := l.cg.Snapshot()
	return &Instance{Topo: l.topo, Flows: set, Graph: g, Cliques: cliques}
}

// buildOnce is NewInstance's construction without validation.
func buildOnce(topo *topology.Topology, set *flow.Set) *Instance {
	l := NewLive(topo)
	l.sync(set.Flows())
	g, cliques := l.cg.Detach()
	return &Instance{Topo: topo, Flows: set, Graph: g, Cliques: cliques}
}

func (l *Live) sync(flows []*flow.Flow) {
	old := len(l.flows)
	kept := l.flows[:0]
	l.drop = l.drop[:0]
	j, v := 0, 0
	for _, f := range l.flows {
		if j < len(flows) && flows[j] == f {
			kept = append(kept, f)
			j++
		} else {
			for h := 0; h < f.Length(); h++ {
				l.drop = append(l.drop, v+h)
			}
		}
		v += f.Length()
	}
	l.cg.Remove(l.drop)
	l.add = l.add[:0]
	for _, f := range flows[j:] {
		l.add = append(l.add, f.Subflows()...)
		kept = append(kept, f)
	}
	l.cg.Add(l.add)
	if len(kept) < old {
		clear(l.flows[len(kept):old])
	}
	l.flows = kept
	clear(l.add) // drop flow ID references
}
