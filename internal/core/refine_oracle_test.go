package core

// The probe-only max-min refinement is kept here as the reference the
// production refinement is checked against. It runs the refinement's
// own floor LPs, but freezes a flow only after a probe LP shows the
// flow cannot exceed the round's threshold, solves every probe to its
// optimum cold (SolveInto) on a program rebuilt from scratch
// (refine_rebuild_test.go), and rebuilds the shared probe program after
// every freeze. Before a round's first freeze it moves the freeze
// target to the optimum a fixed secondary objective selects (settle),
// so the values it freezes do not depend on the vertex the floor LP's
// solve reached.

// CentralizedOracle is CentralizedAllocate with Refine on, run with
// the probe-only refinement.
func CentralizedOracle(inst *Instance) (FlowAllocation, error) {
	s, probes := newSession(), newRebuild()
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		opt, err := s.load(g.lpRows(), g.basic, g.weights)
		if err != nil {
			return nil, err
		}
		x, err := s.refineMaxMinOracle(probes, opt)
		if err != nil {
			return nil, err
		}
		for i, id := range g.ids {
			out[id] = x[i]
		}
	}
	return out, nil
}

// centralizedRefinedWith is CentralizedAllocate with Refine on, each
// group's optimal total refined by refine on one fresh per-LP rebuild
// state (refine_rebuild_test.go).
func centralizedRefinedWith(inst *Instance, refine func(s *rebuild, rows [][]float64, basic, weights []float64, opt float64) ([]float64, error)) (FlowAllocation, error) {
	s := newRebuild()
	out := make(FlowAllocation, inst.Flows.Len())
	for _, g := range inst.groups() {
		obj, err := s.maximizeTotal(g.lpRows(), g.basic, nil, nil)
		if err != nil {
			return nil, err
		}
		x, err := refine(s, g.lpRows(), g.basic, g.weights, obj)
		if err != nil {
			return nil, err
		}
		for i, id := range g.ids {
			out[id] = x[i]
		}
	}
	return out, nil
}

// refineMaxMinOracle is the probe-only refinement of the loaded group;
// see refineMaxMin for the problem it solves. Its floor and settle LPs
// are edits of the session's program, solved warm; its probes are
// rebuilt and solved cold on probes.
func (s *session) refineMaxMinOracle(probes *rebuild, opt float64) ([]float64, error) {
	rows, basic, weights := s.rows, s.basic, s.weights
	n := len(basic)
	frozen := make([]bool, n)
	value := make([]float64, n)
	for remaining := n; remaining > 0; {
		t, err := s.floor(frozen, opt)
		if err != nil {
			return nil, err
		}
		if err := s.solver.SetBounds(&s.prob, n, t, t); err != nil {
			return nil, err
		}
		built, settled := false, false
		prev := -1
		anyFrozen := false
		for i := 0; i < n; i++ {
			if frozen[i] || s.point[i] > weights[i]*t+freezeTol {
				continue
			}
			if !built {
				if err := probes.buildProbe(rows, basic, weights, opt, frozen, value, t); err != nil {
					return nil, err
				}
				built = true
				prev = -1
			}
			if prev >= 0 {
				if err := probes.prob.SetObjectiveCoeff(probes.col[prev], 0); err != nil {
					return nil, err
				}
			}
			if err := probes.prob.SetObjectiveCoeff(probes.col[i], 1); err != nil {
				return nil, err
			}
			if err := probes.solver.SolveInto(&probes.prob, &probes.sol); err != nil {
				return nil, err
			}
			prev = i
			if probes.sol.X[probes.col[i]]+probes.shift[i] <= weights[i]*t+freezeTol {
				if !settled {
					if err := s.settle(frozen, t); err != nil {
						return nil, err
					}
					settled = true
				}
				frozen[i] = true
				value[i] = s.point[i]
				remaining--
				anyFrozen = true
				built = false
				if err := s.fix(i, value[i]); err != nil {
					return nil, err
				}
			}
		}
		if !anyFrozen {
			for i := 0; i < n; i++ {
				if !frozen[i] {
					frozen[i] = true
					value[i] = s.point[i]
					remaining--
				}
			}
		}
	}
	return value, nil
}

// settle moves the round's freeze target s.point from the floor LP's
// optimal point to the optimum of the floor LP that a fixed secondary
// objective selects: with t fixed at t it minimizes Σ (1 + i/n)·y_i
// over the unfrozen flows. The floor LP can have many optima (the
// total row leaves optTol of slack to share out), and which one a
// solve reaches depends on the vertex it started from; with distinct
// weights the minimizer is unique unless an edge of the optimal face
// is orthogonal to the weight vector. The next floor LP resets the
// objective and t's bounds.
func (s *session) settle(frozen []bool, t float64) error {
	n := len(s.basic)
	p := &s.prob
	if err := s.solver.SetBounds(p, n, t, t); err != nil {
		return err
	}
	if err := p.SetObjectiveCoeff(n, 0); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		c := 0.0
		if !frozen[i] {
			c = -(1 + float64(i)/float64(n))
		}
		if err := p.SetObjectiveCoeff(i, c); err != nil {
			return err
		}
	}
	if _, err := s.resolve(s.solver, p); err != nil {
		return err
	}
	s.keepPoint(t)
	return nil
}
