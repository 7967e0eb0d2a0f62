package core

import (
	"e2efair/internal/flow"
	"e2efair/internal/lp"
)

// GroupLP is a test view of one contending flow group's LP as the
// allocator sees it.
type GroupLP struct {
	IDs     []flow.ID
	Rows    [][]float64
	Basic   []float64
	Weights []float64
	Key     string
}

// GroupLPs returns the instance's group LPs in allocation order.
func GroupLPs(inst *Instance) []GroupLP {
	var out []GroupLP
	for _, g := range inst.groups() {
		out = append(out, GroupLP{IDs: g.ids, Rows: g.lpRows(), Basic: g.basic, Weights: g.weights, Key: g.key})
	}
	return out
}

// ResetCache drops all cached group solutions (cumulative CacheStats
// counters are kept). Benchmarks use it to measure cold solves;
// allocations never need it for correctness because cache keys capture
// the entire LP.
func (a *Allocator) ResetCache() {
	a.enterGuard()
	defer a.exitGuard()
	a.cache.reset()
}

// reset drops every entry but keeps the cumulative counters.
func (c *groupLRU) reset() {
	clear(c.entries)
	c.order.Init()
}

// CentralizedObserved is CentralizedAllocate with Refine on, handing
// every LP the refinement solves to its optimum, with that optimum, to
// observe.
func CentralizedObserved(inst *Instance, observe func(*lp.Problem, *lp.Solution)) (FlowAllocation, error) {
	a := NewAllocatorWorkers(1)
	a.sessions[0].observer = observe
	return a.Centralized(inst, CentralizedOptions{Refine: true})
}
