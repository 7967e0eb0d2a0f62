package core

import (
	"math/big"

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

// ResetCache drops all cached group solutions. Benchmarks use it to
// measure cold solves; allocations never need it for correctness
// because cache keys capture the entire LP.
func (a *Allocator) ResetCache() {
	a.enterGuard()
	defer a.exitGuard()
	a.cache.reset()
}

// reset drops every entry.
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

// ExactCentralized is the exact 2PA-C point with refinement, as
// decimal strings of exact fractions keyed by flow (exact_test.go).
func ExactCentralized(inst *Instance) (map[flow.ID]string, error) {
	x, err := exactCentralized(inst)
	if err != nil {
		return nil, err
	}
	out := make(map[flow.ID]string, len(x))
	for id, v := range x {
		out[id] = v.RatString()
	}
	return out, nil
}

// ExactError is the largest per-flow |got − exact| against the exact
// 2PA-C point with refinement.
func ExactError(inst *Instance, got FlowAllocation) (float64, error) {
	x, err := exactCentralized(inst)
	if err != nil {
		return 0, err
	}
	return exactError(got, x), nil
}

// ExactDistributed is the exact point of every local LP of a 2PA-D
// run, each flow taking its source node's local value, as exact
// fractions keyed by flow. The local floors and weights are read back
// from res as the simplest fractions their floats stand for (ratOf).
func ExactDistributed(inst *Instance, res *DistributedResult) (map[flow.ID]string, error) {
	out := make(map[flow.ID]string)
	for _, local := range res.Locals {
		basic := make([]*big.Rat, len(local.Basic))
		weights := make([]*big.Rat, len(local.Weights))
		for i := range basic {
			basic[i], weights[i] = ratOf(local.Basic[i]), ratOf(local.Weights[i])
		}
		x, err := exactMaxMin(local.Cliques, basic, weights)
		if err != nil {
			return nil, err
		}
		for i, id := range local.FlowIDs {
			if f, err := inst.Flows.Get(id); err == nil && f.Source() == local.Node {
				out[id] = x[i].RatString()
			}
		}
	}
	return out, nil
}
