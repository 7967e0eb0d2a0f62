package mobility

import (
	"fmt"
	"math/rand"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/geom"
	"e2efair/internal/netsim"
	"e2efair/internal/routing"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// FlowSpec declares one mobile flow by endpoint node indices.
type FlowSpec struct {
	ID     flow.ID
	Src    int
	Dst    int
	Weight float64 // 1 if zero
}

// Config parameterizes an epochal mobile run: the simulation proceeds
// in epochs; at each epoch boundary node positions advance under the
// waypoint model, routes are recomputed, the first phase reallocates
// over the reachable flows, and the packet simulator runs the epoch.
// Forwarding queues are flushed at epoch boundaries (an explicit
// simplification, stated in DESIGN.md).
type Config struct {
	Nodes    int
	Waypoint WaypointConfig
	Flows    []FlowSpec
	Protocol netsim.Protocol
	Epoch    sim.Time // default 10 s
	Duration sim.Time // default 100 s
	Seed     int64
	TxRange  float64 // default 250 m
	// Net carries packet-level parameters (rate, queue, α…); its
	// Protocol/Duration/Seed fields are managed per epoch.
	Net netsim.Config
}

// EpochStat reports one epoch.
type EpochStat struct {
	Start sim.Time
	// Routed counts flows with a usable route this epoch.
	Routed int
	// Broken counts flows whose previous route lost a link.
	Broken int
	// Rerouted counts flows whose route changed (including repairs).
	Rerouted int
	// Delivered and Lost are the epoch's packet counts.
	Delivered int64
	Lost      int64
	// Allocation is the per-flow share vector used this epoch.
	Allocation core.FlowAllocation
}

// Result aggregates a mobile run.
type Result struct {
	Epochs []EpochStat
	// PerFlow sums end-to-end deliveries across epochs.
	PerFlow map[flow.ID]int64
	// TotalDelivered and TotalLost sum across epochs.
	TotalDelivered int64
	TotalLost      int64
	// RouteBreaks counts link breakages across the run.
	RouteBreaks int
	// Unreachable counts flow-epochs without any route.
	Unreachable int
}

// Run executes the epochal mobile simulation.
func Run(cfg Config) (*Result, error) {
	cfg, wp, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return runIncremental(cfg, wp)
}

// prepare validates cfg, fills its defaults and seeds the waypoint
// model.
func prepare(cfg Config) (Config, *Waypoint, error) {
	if cfg.Nodes <= 0 || len(cfg.Flows) == 0 {
		return cfg, nil, fmt.Errorf("mobility: need nodes and flows")
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 10 * sim.Second
	}
	if cfg.Duration == 0 {
		cfg.Duration = 100 * sim.Second
	}
	if cfg.TxRange == 0 {
		cfg.TxRange = topology.DefaultRange
	}
	for _, f := range cfg.Flows {
		if f.Src < 0 || f.Src >= cfg.Nodes || f.Dst < 0 || f.Dst >= cfg.Nodes || f.Src == f.Dst {
			return cfg, nil, fmt.Errorf("mobility: flow %s has bad endpoints (%d, %d)", f.ID, f.Src, f.Dst)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	wp, err := NewWaypoint(cfg.Nodes, cfg.Waypoint, rng)
	if err != nil {
		return cfg, nil, err
	}
	return cfg, wp, nil
}

// runIncremental is the epoch loop with work reuse across epochs: one
// topology Snapshotter (grid, arenas, change detection), DSR-style
// route maintenance that keeps still-valid routes and batches repairs
// by source through one BFS tree, and two kinds of first-phase reuse.
// While the adjacency is unchanged no route can change, so the epoch
// replays the previous epoch's instance and shares outright. Otherwise
// it builds a fresh instance and solves it on one allocator whose
// solver scratch and group share cache span the whole run, so an
// epoch that perturbs some contention components re-solves only those
// components' group LPs and copies cached shares for the rest.
func runIncremental(cfg Config, wp *Waypoint) (*Result, error) {
	res := &Result{PerFlow: make(map[flow.ID]int64, len(cfg.Flows))}
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	snap, err := topology.NewSnapshotter(names, cfg.TxRange, 0)
	if err != nil {
		return nil, err
	}
	allocator := core.NewAllocator()
	var (
		pos      []geom.Point
		bt       routing.BFSTree
		pending  []int // spec indices needing a fresh route
		srcOrder []topology.NodeID
		inst     *core.Instance         // nil while no flow is routed
		shares   core.SubflowAllocation // inst's shares once solved
	)
	prevRoutes := make(map[flow.ID][]topology.NodeID, len(cfg.Flows))
	bySrc := make(map[topology.NodeID][]int)

	for start := sim.Time(0); start < cfg.Duration; start += cfg.Epoch {
		pos = wp.AppendPositions(pos[:0])
		topo, changed, err := snap.Snapshot(pos)
		if err != nil {
			return nil, err
		}
		ep := EpochStat{Start: start}

		if changed || len(res.Epochs) == 0 {
			// Breakage scan, identical to the rebuild baseline. When the
			// adjacency is unchanged no link can have broken (tx range ==
			// interference range here), so the scan is skipped outright.
			for _, route := range prevRoutes {
				for i := 0; i+1 < len(route); i++ {
					if !topo.InTxRange(route[i], route[i+1]) {
						ep.Broken++
						res.RouteBreaks++
						break
					}
				}
			}
			// Route maintenance: a flow keeps its previous route while it
			// remains a valid shortcut-free path; the rest are repaired in
			// batches — one BFS per distinct source node answers every
			// flow originating there.
			routes := make(map[flow.ID][]topology.NodeID, len(cfg.Flows))
			pending = pending[:0]
			for si, fs := range cfg.Flows {
				if prev, ok := prevRoutes[fs.ID]; ok && routing.PathStillValid(topo, prev) {
					routes[fs.ID] = prev
					continue
				}
				pending = append(pending, si)
			}
			srcOrder = srcOrder[:0]
			for _, si := range pending {
				src := topology.NodeID(cfg.Flows[si].Src)
				if _, ok := bySrc[src]; !ok {
					srcOrder = append(srcOrder, src)
				}
				bySrc[src] = append(bySrc[src], si)
			}
			for _, src := range srcOrder {
				if err := bt.Build(topo, src); err != nil {
					return nil, err
				}
				for _, si := range bySrc[src] {
					fs := cfg.Flows[si]
					dst := topology.NodeID(fs.Dst)
					if !bt.Reached(dst) {
						continue // unreachable this epoch
					}
					path, err := bt.PathTo(dst)
					if err != nil {
						return nil, err
					}
					routes[fs.ID] = path
				}
				delete(bySrc, src)
			}
			for id, route := range routes {
				if prev, ok := prevRoutes[id]; ok && !samePath(prev, route) {
					ep.Rerouted++
				}
			}
			prevRoutes = routes

			// The epoch's flow set, in spec order, and its instance.
			flows := make([]*flow.Flow, 0, len(routes))
			for _, fs := range cfg.Flows {
				route, ok := routes[fs.ID]
				if !ok {
					continue
				}
				weight := fs.Weight
				if weight == 0 {
					weight = 1
				}
				f, err := flow.New(fs.ID, weight, route)
				if err != nil {
					return nil, err
				}
				flows = append(flows, f)
			}
			set, err := flow.NewSet(flows...)
			if err != nil {
				return nil, err
			}
			inst, shares = nil, nil
			if set.Len() > 0 {
				if inst, err = core.NewInstance(topo, set); err != nil {
					return nil, err
				}
			}
		}
		res.Unreachable += len(cfg.Flows) - len(prevRoutes)
		ep.Routed = len(prevRoutes)

		if inst != nil {
			netCfg := epochNetConfig(cfg, start)
			netCfg.Shares = shares
			run, err := netsim.RunWith(allocator, inst, netCfg)
			if err != nil {
				return nil, err
			}
			shares = run.Shares
			accountEpoch(res, &ep, inst.Flows, run)
		}
		res.Epochs = append(res.Epochs, ep)
		wp.Advance(cfg.Epoch)
	}
	return res, nil
}

// epochNetConfig derives one epoch's packet-level config: the run's
// protocol, the epoch as duration, and a per-epoch seed.
func epochNetConfig(cfg Config, start sim.Time) netsim.Config {
	netCfg := cfg.Net
	netCfg.Protocol = cfg.Protocol
	netCfg.Duration = cfg.Epoch
	netCfg.Seed = cfg.Seed + int64(start)
	return netCfg
}

// accountEpoch folds one epoch's packet-run metrics into the epoch
// stat and run totals.
func accountEpoch(res *Result, ep *EpochStat, set *flow.Set, run *netsim.Result) {
	ep.Delivered = run.Stats.TotalEndToEnd()
	ep.Lost = run.Stats.Lost()
	res.TotalDelivered += ep.Delivered
	res.TotalLost += ep.Lost
	for _, f := range set.Flows() {
		res.PerFlow[f.ID()] += run.Stats.EndToEnd(f.ID())
	}
	if run.Shares != nil {
		ep.Allocation = make(core.FlowAllocation, set.Len())
		for _, f := range set.Flows() {
			if s, ok := run.Shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]; ok {
				ep.Allocation[f.ID()] = s
			}
		}
	}
}

// samePath reports whether two routes are identical.
func samePath(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
