package netsim

import (
	"fmt"
	"maps"
	"slices"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// shardMinComponents is the cutoff below which sharding is pure
// overhead: with one component there is nothing to parallelize, and
// the single-engine path is kept exactly as-is.
const shardMinComponents = 2

// component is one engine's share of a run: the whole instance with
// identity maps, or one radio component's induced sub-instance with
// the config slice (t=0 shares, fault plan) and churn events of its
// own flows.
type component struct {
	index   int               // radio component, for error messages
	members []topology.NodeID // local → global node ID; nil: identity
	flowIdx []int             // local → global flow index; nil: identity
	inst    *core.Instance
	cfg     Config
	events  []FlowEvent
	dynamic bool // flows emit only inside their churn on-intervals
}

// run is the one dispatcher behind Run, RunWith and RunDynamic. It
// validates the churn events and the fault plan against the whole
// instance and solves the t=0 shares once with the caller's allocator
// (or a fresh one), which the single-engine run keeps for its
// re-solves. A Config.ShardSim run with no tracer and at least
// shardMinComponents radio components is then split per component,
// the components run on the worker pool and their results merge;
// otherwise the whole instance is the one component and its result is
// returned as is.
//
// Byte-identity of the sharded run with the single-engine run rests on
// four invariants: interference-closed components never exchange MAC
// events; every random draw comes from a per-node stream seeded by the
// node's global ID, so draw sequences depend only on intra-component
// event order; CBR stagger offsets are keyed to global flow indices;
// and group LPs never span radio components (contention needs
// interference proximity), so the whole-instance shares sliced per
// component, and every per-component re-solve, equal what the single
// engine installs. Merge order is component order, so the worker count
// never changes the result. Reallocations and WatchdogChecks tally per
// component, so they can exceed the single-engine counts.
func run(a *core.Allocator, inst *core.Instance, cfg Config, events []FlowEvent, dynamic bool) (*DynamicResult, error) {
	cfg = cfg.withDefaults()
	if inst.Topo == nil {
		return nil, ErrNeedTopology
	}
	for _, ev := range events {
		for _, id := range slices.Concat(ev.Start, ev.Stop) {
			if _, err := inst.Flows.Get(id); err != nil {
				return nil, fmt.Errorf("netsim: dynamic event: %w", err)
			}
		}
	}
	if cfg.Fault != nil {
		if _, err := cfg.Fault.Compile(inst.Topo.NumNodes()); err != nil {
			return nil, err
		}
	}
	if a == nil {
		a = core.NewAllocatorWorkers(1)
	}
	degraded := false
	if cfg.Shares == nil {
		var err error
		if cfg.Shares, degraded, err = solveShares(a, inst, cfg.Protocol); err != nil {
			return nil, err
		}
	}

	comps, err := partition(inst, cfg, events, dynamic)
	if err != nil {
		return nil, err
	}
	var res *DynamicResult
	if comps == nil {
		res, err = runComponent(a, &component{inst: inst, cfg: cfg, events: events, dynamic: dynamic})
		if err != nil {
			return nil, err
		}
	} else {
		results := make([]*DynamicResult, len(comps))
		if i, err := forEach(len(comps), cfg.ShardWorkers, func(eng *sim.Engine, i int) (err error) {
			comps[i].cfg.eng = eng
			results[i], err = runComponent(nil, comps[i])
			return err
		}); err != nil {
			return nil, fmt.Errorf("netsim: shard %d (component %d): %w", i, comps[i].index, err)
		}
		res = merge(cfg, comps, results)
	}
	if rep := res.Resilience; rep != nil && degraded {
		rep.DegradedAllocs++
	}
	return res, nil
}

// partition splits a ShardSim run into one component per radio
// component that carries at least one flow, or returns nil when the
// run stays on one engine (sharding off, a tracer attached, or too few
// components). Flowless components are skipped: without sources they
// produce no packets, no stats and no observable fault effects.
func partition(inst *core.Instance, cfg Config, events []FlowEvent, dynamic bool) ([]*component, error) {
	if !cfg.ShardSim || cfg.Tracer != nil {
		return nil, nil
	}
	var cs topology.RadioComponentSet
	inst.Topo.AppendRadioComponents(&cs)
	ncomp := cs.Len()
	if ncomp < shardMinComponents {
		return nil, nil
	}
	n := inst.Topo.NumNodes()
	compOf := make([]int32, n)
	for c := 0; c < ncomp; c++ {
		for _, id := range cs.Component(c) {
			compOf[id] = int32(c)
		}
	}
	// Flows grouped by the component of their source; paths are closed
	// within a component (every hop is a tx-range link, and tx range ≤
	// interference range), so the source's component owns the flow.
	flowsOf := make([][]*flow.Flow, ncomp)
	gidxOf := make([][]int, ncomp)
	for i, f := range inst.Flows.Flows() {
		c := compOf[f.Source()]
		flowsOf[c] = append(flowsOf[c], f)
		gidxOf[c] = append(gidxOf[c], i)
	}

	localOf := make([]int32, n) // global → local, valid for the component in flight
	slot := make(map[flow.ID]int, inst.Flows.Len())
	var comps []*component
	for c := 0; c < ncomp; c++ {
		if len(flowsOf[c]) == 0 {
			continue
		}
		members := cs.Component(c)
		subTopo, err := inst.Topo.Subset(members)
		if err != nil {
			return nil, err
		}
		nodeIDs := make([]int32, len(members))
		for li, g := range members {
			localOf[g] = int32(li)
			nodeIDs[li] = int32(g)
		}
		remapped := make([]*flow.Flow, len(flowsOf[c]))
		for fi, f := range flowsOf[c] {
			path := f.Path()
			for j, node := range path {
				if int(compOf[node]) != c {
					return nil, fmt.Errorf("netsim: flow %s leaves radio component %d at node %s", f.ID(), c, inst.Topo.Name(node))
				}
				path[j] = topology.NodeID(localOf[node])
			}
			nf, err := flow.New(f.ID(), f.Weight(), path)
			if err != nil {
				return nil, err
			}
			remapped[fi] = nf
			slot[f.ID()] = len(comps)
		}
		subSet, err := flow.NewSet(remapped...)
		if err != nil {
			return nil, err
		}

		scfg := cfg
		scfg.ShardSim = false
		scfg.ShardWorkers = 0
		scfg.eng = nil
		scfg.nodeIDs = nodeIDs
		if cfg.Shares != nil {
			sub := make(core.SubflowAllocation)
			for _, f := range flowsOf[c] {
				for _, s := range f.Subflows() {
					sub[s.ID] = cfg.Shares[s.ID]
				}
			}
			scfg.Shares = sub
		}
		if cfg.Fault != nil {
			scfg.Fault = shardFaultPlan(cfg.Fault, compOf, localOf, c)
		}
		comps = append(comps, &component{
			index:   c,
			members: members,
			flowIdx: gidxOf[c],
			inst:    &core.Instance{Topo: subTopo, Flows: subSet},
			cfg:     scfg,
			dynamic: dynamic,
		})
	}

	// Each component replays the events restricted to its own flows,
	// in order; events that name none of them are dropped.
	last := make([]int, len(comps))
	for k := range last {
		last[k] = -1
	}
	for e, ev := range events {
		eventOf := func(id flow.ID) *FlowEvent {
			k := slot[id]
			if last[k] != e {
				last[k] = e
				comps[k].events = append(comps[k].events, FlowEvent{At: ev.At})
			}
			return &comps[k].events[len(comps[k].events)-1]
		}
		for _, id := range ev.Stop {
			sub := eventOf(id)
			sub.Stop = append(sub.Stop, id)
		}
		for _, id := range ev.Start {
			sub := eventOf(id)
			sub.Start = append(sub.Start, id)
		}
	}
	return comps, nil
}

// shardFaultPlan restricts a validated fault plan to one component,
// remapping node IDs to shard-local indices. Directives whose nodes
// fall outside the component are dropped: a link between components is
// out of interference range, so neither its loss rate nor its up/down
// state can ever be consulted there.
func shardFaultPlan(p *fault.Plan, compOf, localOf []int32, c int) *fault.Plan {
	sp := &fault.Plan{Seed: p.Seed, DefaultLoss: p.DefaultLoss}
	for _, l := range p.LinkLoss {
		if int(compOf[l.A]) == c && int(compOf[l.B]) == c {
			sp.LinkLoss = append(sp.LinkLoss, fault.LinkLoss{
				A: topology.NodeID(localOf[l.A]), B: topology.NodeID(localOf[l.B]), Rate: l.Rate,
			})
		}
	}
	for _, f := range p.NodeFaults {
		if int(compOf[f.Node]) == c {
			sp.NodeFaults = append(sp.NodeFaults, fault.NodeFault{
				Node: topology.NodeID(localOf[f.Node]), Down: f.Down, Up: f.Up,
			})
		}
	}
	for _, f := range p.LinkFaults {
		if int(compOf[f.A]) == c && int(compOf[f.B]) == c {
			sp.LinkFaults = append(sp.LinkFaults, fault.LinkFault{
				A: topology.NodeID(localOf[f.A]), B: topology.NodeID(localOf[f.B]), Down: f.Down, Up: f.Up,
			})
		}
	}
	return sp
}

// merge folds the per-component results into one, in component order:
// collectors union (flow sets are disjoint), series merge window-wise
// on the shared sampling schedule, airtime sums with per-node totals
// remapped to global IDs, reallocation counts sum and final shares
// union, and resilience counters sum with final routes remapped.
func merge(cfg Config, comps []*component, results []*DynamicResult) *DynamicResult {
	out := &DynamicResult{
		Result: Result{
			Protocol: cfg.Protocol,
			Duration: cfg.Duration,
			Stats:    stats.NewCollector(),
			Shares:   cfg.Shares,
			Airtime: &mac.AirtimeReport{
				Duration:  cfg.Duration,
				PerNodeTx: make(map[topology.NodeID]sim.Time),
			},
		},
		FinalShares: make(core.SubflowAllocation),
	}
	var rep *ResilienceReport
	if cfg.Fault != nil || cfg.Watchdog {
		rep = &ResilienceReport{FinalRoutes: make(map[flow.ID][]topology.NodeID)}
		out.Resilience = rep
	}
	for i, r := range results {
		members := comps[i].members
		out.Stats.Merge(r.Stats)
		out.Airtime.TxTime += r.Airtime.TxTime
		out.Airtime.CollisionTime += r.Airtime.CollisionTime
		out.Airtime.Exchanges += r.Airtime.Exchanges
		out.Airtime.Collisions += r.Airtime.Collisions
		for local, t := range r.Airtime.PerNodeTx {
			out.Airtime.PerNodeTx[members[local]] = t
		}
		if r.Series != nil {
			if out.Series == nil {
				out.Series = r.Series
			} else {
				// Sub-runs share duration and period, so schedules
				// match by construction; a mismatch would be a bug.
				_ = out.Series.Merge(r.Series)
			}
		}
		out.Reallocations += r.Reallocations
		maps.Copy(out.FinalShares, r.FinalShares)
		if rep != nil {
			mergeResilience(rep, r.Resilience, members)
		}
	}
	return out
}

// mergeResilience folds one shard's report into the merged report,
// remapping final routes to global node IDs. Violations concatenate in
// shard order up to the usual cap. Every packet- and repair-accounting
// counter matches the single-engine run exactly.
func mergeResilience(dst, src *ResilienceReport, members []topology.NodeID) {
	dst.Emitted += src.Emitted
	dst.Injected += src.Injected
	dst.Delivered += src.Delivered
	dst.SourceDrops += src.SourceDrops
	dst.QueueDrops += src.QueueDrops
	dst.RetryDrops += src.RetryDrops
	dst.NoRouteDrops += src.NoRouteDrops
	dst.CorruptFrames += src.CorruptFrames
	dst.InjectedLosses += src.InjectedLosses
	dst.LinkDeadSignals += src.LinkDeadSignals
	dst.RouteErrors += src.RouteErrors
	dst.Reroutes += src.Reroutes
	dst.Salvaged += src.Salvaged
	dst.Reallocations += src.Reallocations
	dst.DegradedAllocs += src.DegradedAllocs
	dst.RepairTime += src.RepairTime
	dst.WatchdogChecks += src.WatchdogChecks
	for _, v := range src.Violations {
		if len(dst.Violations) >= maxViolations {
			break
		}
		dst.Violations = append(dst.Violations, v)
	}
	for fid, route := range src.FinalRoutes {
		global := make([]topology.NodeID, len(route))
		for j, n := range route {
			global[j] = members[n]
		}
		dst.FinalRoutes[fid] = global
	}
}
