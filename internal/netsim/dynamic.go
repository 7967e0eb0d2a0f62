package netsim

import (
	"cmp"
	"slices"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/sim"
)

// FlowEvent starts and stops flows at a point in simulated time. Flows
// named must exist in the instance.
type FlowEvent struct {
	At    sim.Time
	Start []flow.ID
	Stop  []flow.ID
}

// DynamicResult extends Result with reallocation accounting.
type DynamicResult struct {
	Result
	// Reallocations counts first-phase recomputations triggered by
	// flow churn (and, under a fault plan, by route repair).
	Reallocations int
	// FinalShares is the allocation active when the run ended.
	FinalShares core.SubflowAllocation
}

// RunDynamic simulates flow churn: at each event the set of active
// (backlogged) flows changes and — for the allocation-driven protocol
// stacks — the first phase is re-run over the active flows only, with
// the new shares installed into the running schedulers. This exercises
// the paper's assumption that allocation tracks the set of backlogged
// flows. A flow emits only while started: from the event that starts
// it to the event that stops it, with no stagger offset.
func RunDynamic(inst *core.Instance, cfg Config, events []FlowEvent) (*DynamicResult, error) {
	return run(nil, inst, cfg, events, true)
}

// scheduleChurn turns the churn schedule into sources and reallocation
// events. Each start of an inactive flow opens one on-interval, closed
// by the flow's next stop or the end of the run, and each interval is
// one CBR source. Events apply in time order (list order among equal
// times), stops before starts. Every event's new sources are scheduled
// just ahead of its reallocation, so a started flow's first packet is
// queued under the shares in force before the event, as the
// reallocation then moves them.
func (r *coordinator) scheduleChurn(events []FlowEvent) error {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(events[a].At, events[b].At) })

	type onInterval struct {
		flow        int
		start, stop sim.Time
	}
	var ivs []onInterval
	opened := make([]int, len(order)) // ivs[:opened[k]] open by event order[k]
	open := make([]int, len(r.active))
	for i := range open {
		open[i] = -1
	}
	for k, e := range order {
		ev := events[e]
		for _, id := range ev.Stop {
			if i := r.index[id]; open[i] >= 0 {
				ivs[open[i]].stop = ev.At
				open[i] = -1
			}
		}
		for _, id := range ev.Start {
			if i := r.index[id]; open[i] < 0 {
				open[i] = len(ivs)
				ivs = append(ivs, onInterval{i, ev.At, r.cfg.Duration})
			}
		}
		opened[k] = len(ivs)
	}

	next := 0
	for k, e := range order {
		for ; next < opened[k]; next++ {
			if err := r.startSource(ivs[next].flow, ivs[next].start, ivs[next].stop); err != nil {
				return err
			}
		}
		ev := events[e]
		if err := r.stack.Engine.Schedule(ev.At, 1, func() { r.churn(ev) }); err != nil {
			return err
		}
	}
	return nil
}

// churn applies one event to the active set and re-solves the shares.
func (r *coordinator) churn(ev FlowEvent) {
	for _, id := range ev.Stop {
		r.active[r.index[id]] = false
	}
	for _, id := range ev.Start {
		r.active[r.index[id]] = true
	}
	r.reallocate(r.stack.Engine.Now())
}
