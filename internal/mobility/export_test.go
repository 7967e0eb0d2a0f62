package mobility

// The seed's full-rebuild epoch loop, kept as the test-side oracle for
// the incremental pipeline Run uses.

import (
	"fmt"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/geom"
	"e2efair/internal/netsim"
	"e2efair/internal/routing"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// RunRebuild is Run with the reference epoch loop runRebuild.
func RunRebuild(cfg Config) (*Result, error) {
	cfg, wp, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return runRebuild(cfg, wp)
}

// runRebuild is the reference epoch loop: every epoch rebuilds the
// topology from scratch, re-searches every flow's shortest path, and
// constructs a fresh instance and allocator, then packet-simulates the
// epoch. It is the oracle the incremental pipeline is cross-checked
// and benchmarked against. Unlike Run it never keeps a still-valid
// route (it always switches to a current shortest path).
func runRebuild(cfg Config, wp *Waypoint) (*Result, error) {
	res := &Result{PerFlow: make(map[flow.ID]int64, len(cfg.Flows))}
	prevRoutes := make(map[flow.ID][]topology.NodeID, len(cfg.Flows))

	for start := sim.Time(0); start < cfg.Duration; start += cfg.Epoch {
		topo, err := buildTopo(wp.Positions(), cfg.TxRange)
		if err != nil {
			return nil, err
		}
		ep := EpochStat{Start: start}
		// Detect breakage of last epoch's routes.
		for _, route := range prevRoutes {
			for i := 0; i+1 < len(route); i++ {
				if !topo.InTxRange(route[i], route[i+1]) {
					ep.Broken++
					res.RouteBreaks++
					break
				}
			}
		}
		// Recompute routes.
		set, routes, err := routeFlows(topo, cfg.Flows)
		if err != nil {
			return nil, err
		}
		for id, route := range routes {
			if prev, ok := prevRoutes[id]; ok && !samePath(prev, route) {
				ep.Rerouted++
			}
		}
		res.Unreachable += len(cfg.Flows) - len(routes)
		ep.Routed = len(routes)
		prevRoutes = routes

		if set != nil && set.Len() > 0 {
			inst, err := core.NewInstance(topo, set)
			if err != nil {
				return nil, err
			}
			run, err := netsim.Run(inst, epochNetConfig(cfg, start))
			if err != nil {
				return nil, err
			}
			accountEpoch(res, &ep, set, run)
		}
		res.Epochs = append(res.Epochs, ep)
		wp.Advance(cfg.Epoch)
	}
	return res, nil
}

// buildTopo snapshots positions into a topology.
func buildTopo(pos []geom.Point, txRange float64) (*topology.Topology, error) {
	b := topology.NewBuilder(txRange, 0)
	for i, p := range pos {
		b.Add(fmt.Sprintf("n%d", i), p.X, p.Y)
	}
	return b.Build()
}

// routeFlows computes shortest-path routes for the reachable flows and
// wraps them in a flow set. Unreachable flows are skipped.
func routeFlows(topo *topology.Topology, specs []FlowSpec) (*flow.Set, map[flow.ID][]topology.NodeID, error) {
	set, err := flow.NewSet()
	if err != nil {
		return nil, nil, err
	}
	routes := make(map[flow.ID][]topology.NodeID, len(specs))
	for _, fs := range specs {
		path, err := routing.ShortestPath(topo, topology.NodeID(fs.Src), topology.NodeID(fs.Dst))
		if err != nil {
			continue // unreachable this epoch
		}
		weight := fs.Weight
		if weight == 0 {
			weight = 1
		}
		f, err := flow.New(fs.ID, weight, path)
		if err != nil {
			return nil, nil, err
		}
		if err := set.Add(f); err != nil {
			return nil, nil, err
		}
		routes[fs.ID] = path
	}
	return set, routes, nil
}
