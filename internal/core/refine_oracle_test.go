package core

// The probe-only max-min refinement is kept here as the reference the
// production refinement is checked against. It freezes a flow only
// after a probe LP shows the flow cannot exceed the round's threshold,
// solves every probe cold (SolveInto), and rebuilds the shared probe
// program after every freeze.

// CentralizedOracle is CentralizedAllocate with Refine on, run with
// the probe-only refinement.
func CentralizedOracle(inst *Instance) (FlowAllocation, error) {
	return centralizedRefinedWith(inst, (*session).refineMaxMinOracle)
}

// centralizedRefinedWith is CentralizedAllocate with Refine on, each
// group's optimal total refined by refine on one fresh session.
func centralizedRefinedWith(inst *Instance, refine func(s *session, rows [][]float64, basic, weights []float64, opt float64) ([]float64, error)) (FlowAllocation, error) {
	s := newSession()
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

// refineMaxMinOracle is the probe-only refinement; see refineMaxMin
// for the problem it solves.
func (s *session) refineMaxMinOracle(rows [][]float64, basic, weights []float64, opt float64) ([]float64, error) {
	n := len(basic)
	frozen := make([]bool, n)
	value := make([]float64, n)
	first := true
	for remaining := n; remaining > 0; {
		if !first {
			optCur, err := s.maximizeTotal(rows, basic, frozen, value)
			if err != nil {
				return nil, err
			}
			opt = optCur
		}
		first = false
		t, err := s.maximizeFloor(rows, basic, weights, opt, frozen, value)
		if err != nil {
			return nil, err
		}
		point := s.point
		built := false
		prev := -1
		anyFrozen := false
		for i := 0; i < n; i++ {
			if frozen[i] || point[i] > weights[i]*t+freezeTol {
				continue
			}
			if !built {
				if err := s.buildProbe(rows, basic, weights, opt, frozen, value, t); err != nil {
					return nil, err
				}
				built = true
				prev = -1
			}
			if prev >= 0 {
				if err := s.prob.SetObjectiveCoeff(s.col[prev], 0); err != nil {
					return nil, err
				}
			}
			if err := s.prob.SetObjectiveCoeff(s.col[i], 1); err != nil {
				return nil, err
			}
			if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
				return nil, err
			}
			prev = i
			if s.sol.X[s.col[i]]+s.shift[i] <= weights[i]*t+freezeTol {
				frozen[i] = true
				value[i] = point[i]
				remaining--
				anyFrozen = true
				built = false
			}
		}
		if !anyFrozen {
			for i := 0; i < n; i++ {
				if !frozen[i] {
					frozen[i] = true
					value[i] = point[i]
					remaining--
				}
			}
		}
	}
	return value, nil
}
