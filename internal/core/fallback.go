package core

import (
	"errors"
	"fmt"

	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// DegradableLPError reports whether err is an LP failure the allocator
// can absorb by degrading to the closed-form basic shares — the solver
// hit its iteration limit, or declared the program infeasible or
// unbounded — as opposed to a programming error that must propagate.
func DegradableLPError(err error) bool {
	return errors.Is(err, lp.ErrIterationLimit) ||
		errors.Is(err, lp.ErrInfeasible) ||
		errors.Is(err, lp.ErrUnbounded)
}

// GracefulCentralized is Centralized with graceful degradation: when
// the LP fails in a degradable way, the allocation falls back to the
// closed-form basic share r̂_i = w_i/Σ_j w_j·v_j per contending group
// (Sec. II-D) — always feasible, always fair, never aborting a run.
// The boolean reports whether the fallback was taken.
func (a *Allocator) GracefulCentralized(inst *Instance, opts CentralizedOptions) (FlowAllocation, bool, error) {
	alloc, _, degraded, err := a.GracefulCentralizedDelta(inst, opts)
	return alloc, degraded, err
}

// GracefulCentralizedDelta is GracefulCentralized plus the Delta of
// CentralizedDelta, so re-solve-on-reroute paths can report how many
// group LPs each repair actually cost. A degraded (or failed) solve
// reports a zero Delta.
func (a *Allocator) GracefulCentralizedDelta(inst *Instance, opts CentralizedOptions) (FlowAllocation, Delta, bool, error) {
	alloc, d, err := a.CentralizedDelta(inst, opts)
	if err == nil {
		return alloc, d, false, nil
	}
	alloc, degraded, err := degrade(inst, err)
	return alloc, Delta{}, degraded, err
}

// GracefulDistributed is Distributed with the same degradation rule as
// GracefulCentralized.
func (a *Allocator) GracefulDistributed(inst *Instance) (FlowAllocation, bool, error) {
	res, err := a.Distributed(inst)
	if err == nil {
		return res.Shares, false, nil
	}
	return degrade(inst, err)
}

// degrade is the shared fallback decision: absorb degradable LP
// failures by returning the closed-form basic shares, propagate
// everything else.
func degrade(inst *Instance, err error) (FlowAllocation, bool, error) {
	if DegradableLPError(err) {
		return BasicShares(inst), true, nil
	}
	return nil, false, err
}

// NewInstanceLenient builds an instance validating only that every hop
// is a radio link between distinct nodes — the no-shortcut check of
// NewInstance is skipped. Repaired routes that detour around dead
// links legitimately pass within range of nodes the geometric check
// would flag (the topology does not know a link is administratively
// down), so the resilience layer re-solves on lenient instances.
func NewInstanceLenient(topo *topology.Topology, flows *flow.Set) (*Instance, error) {
	if flows.Len() == 0 {
		return nil, ErrNoFlows
	}
	for _, f := range flows.Flows() {
		path := f.Path()
		if len(path) < 2 {
			return nil, fmt.Errorf("%w: flow %s: %v", ErrInvalidPath, f.ID(), routing.ErrBadPath)
		}
		for i := 0; i+1 < len(path); i++ {
			if !topo.InTxRange(path[i], path[i+1]) {
				return nil, fmt.Errorf("%w: flow %s: hop %s-%s is not a radio link",
					ErrInvalidPath, f.ID(), topo.Name(path[i]), topo.Name(path[i+1]))
			}
		}
	}
	return buildOnce(topo, flows), nil
}
