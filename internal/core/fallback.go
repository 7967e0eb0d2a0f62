package core

import (
	"errors"

	"e2efair/internal/lp"
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
