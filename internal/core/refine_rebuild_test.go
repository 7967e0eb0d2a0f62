package core

import (
	"slices"

	"e2efair/internal/lp"
)

// The refinement as it ran before the group's program was kept in one
// tableau is kept here as the reference the oracles build on
// (refine_oracle_test.go, refine_floorrows_test.go): every LP is
// rebuilt from scratch in reduced form and solved cold, except that
// the probes of one program re-optimize an objective-only change.

// rebuild is the per-LP rebuild refinement's solver state: one
// lp.Problem every LP is rebuilt in, the reduced form's column and row
// scratch, and copies of the floor LP's consistent optimal point and
// its dual-certified blocking flows.
type rebuild struct {
	solver *lp.Solver
	sol    lp.Solution
	prob   lp.Problem

	col    []int     // reduced column per flow, −1 when frozen
	shift  []float64 // per-flow shift of the reduced form
	floor  []float64 // floor LP and probe shifts
	buf    []float64 // one constraint row
	probed int       // flow the probe objective selects, or −1

	point    []float64
	blocking []bool
}

func newRebuild() *rebuild { return &rebuild{solver: lp.NewSolver()} }

// refineRows is the max-min refinement (see session.refineMaxMin) with
// every LP rebuilt and each round's floor LP solved in the row form
// (maximizeFloorRows).
func (s *rebuild) refineRows(rows [][]float64, basic, weights []float64, opt float64) ([]float64, error) {
	n := len(basic)
	frozen := make([]bool, n)
	value := make([]float64, n)
	first := true
	for remaining := n; remaining > 0; {
		// Re-derive the optimal total against the current frozen set:
		// freezing at w·t* carries rounding error that would otherwise
		// accumulate into infeasibility of the Σx ≥ opt constraint. In
		// the first round nothing is frozen and the caller's opt is
		// exactly this program's optimum, so the solve is skipped.
		if !first {
			optCur, err := s.maximizeTotal(rows, basic, frozen, value)
			if err != nil {
				return nil, err
			}
			opt = optCur
		}
		first = false
		t, err := s.maximizeFloorRows(rows, basic, weights, opt, frozen, value)
		if err != nil {
			return nil, err
		}
		// The floor LP's own solution is the freeze target: freezing
		// several variables in one round at individually-maximized
		// values can be jointly infeasible, while s.point is one
		// consistent optimal vertex. Before the first probe freezes a
		// flow, settle moves s.point to the optimum that
		// session.settle selects.
		anyFrozen, settled := false, false
		freeze := func(i int) {
			frozen[i] = true
			value[i] = s.point[i]
			remaining--
			anyFrozen = true
		}
		for i := 0; i < n; i++ {
			if !frozen[i] && s.blocking[i] && s.point[i] <= weights[i]*t+freezeTol {
				freeze(i)
			}
		}
		// The probes of one round share one program, which pins the
		// flows frozen so far; only the objective changes between
		// targets, so each probe after the first re-optimizes in place
		// from the vertex the previous one left. A probe that freezes
		// its flow turns that flow's floor into an equality for the
		// probes that follow, so the program is rebuilt.
		built := false
		for i := 0; i < n; i++ {
			// point satisfies every probe constraint, so the probe's
			// maximum is at least point[i]: a variable strictly above
			// the freeze threshold at point cannot freeze, and its
			// probe LP is skipped outright.
			if frozen[i] || s.point[i] > weights[i]*t+freezeTol {
				continue
			}
			if !built {
				if err := s.buildProbe(rows, basic, weights, opt, frozen, value, t); err != nil {
					return nil, err
				}
				built = true
			}
			xi, err := s.probe(i)
			if err != nil {
				return nil, err
			}
			// Flows that cannot exceed w_i·t* at any optimum freeze.
			if xi <= weights[i]*t+freezeTol {
				if !settled {
					if err := s.settle(rows, weights, opt, frozen, value, t); err != nil {
						return nil, err
					}
					settled = true
				}
				freeze(i)
				built = false
			}
		}
		if !anyFrozen {
			// Numerical stall: freeze everything at the consistent
			// point to guarantee progress; in practice unreached.
			for i := 0; i < n; i++ {
				if !frozen[i] {
					freeze(i)
				}
			}
		}
	}
	return value, nil
}

// The refinement LPs below are built in reduced form: frozen variables
// are substituted out as constants and each unfrozen x_i is shifted by
// its active floor (z_i = x_i − shift_i), turning the floors into the
// implicit z ≥ 0 bounds. Clique rows keep nonnegative right-hand sides
// at every reachable state, so their slacks form a feasible basis and
// phase 1 has at most one artificial — the total-optimality row — to
// drive out, instead of one per floor and frozen equality. Every
// program is rebuilt in place in the session's one lp.Problem, on the
// session's column and row scratch.

// reduce assigns a reduced column to every unfrozen variable (s.col[i]
// is −1 for a frozen one) and shifts each variable by value_i when
// frozen and floor_i otherwise. A nil frozen freezes nothing. It
// returns the reduced column count and Σ shift.
func (s *rebuild) reduce(frozen []bool, value, floor []float64) (k int, off float64) {
	n := len(floor)
	s.col = slices.Grow(s.col[:0], n)[:n]
	s.shift = slices.Grow(s.shift[:0], n)[:n]
	for i := range floor {
		if frozen != nil && frozen[i] {
			s.col[i], s.shift[i] = -1, value[i]
		} else {
			s.col[i], s.shift[i] = k, floor[i]
			k++
		}
		off += s.shift[i]
	}
	return k, off
}

// rowBuf returns the session's row scratch with width zeroed entries.
func (s *rebuild) rowBuf(width int) []float64 {
	s.buf = slices.Grow(s.buf[:0], width)[:width]
	clear(s.buf)
	return s.buf
}

// addCliqueRows appends each clique row rewritten over the k reduced
// columns, Σ a_i·z_i ≤ 1 − Σ a_i·shift_i, with width − k trailing zero
// columns.
func (s *rebuild) addCliqueRows(rows [][]float64, k, width int) error {
	for _, r := range rows {
		buf := s.rowBuf(width)
		rhs := 1.0
		for i, a := range r {
			if c := s.col[i]; c >= 0 {
				buf[c] = a
			}
			rhs -= a * s.shift[i]
		}
		if err := s.prob.AddLE(buf, rhs); err != nil {
			return err
		}
	}
	return nil
}

// addTotalRow appends Σ z ≥ rhs over the k reduced columns, with
// width − k trailing zero columns.
func (s *rebuild) addTotalRow(k, width int, rhs float64) error {
	buf := s.rowBuf(width)
	for _, c := range s.col {
		if c >= 0 {
			buf[c] = 1
		}
	}
	return s.prob.AddGE(buf, rhs)
}

// maximizeTotal solves max Σx subject to rows·x ≤ 1 and x ≥ basic,
// with frozen variables pinned at value (a nil frozen pins none). It
// yields a group's optimal total and each refinement round's
// optimality target. When the floors fit every clique the reduced
// program is pure-LE with nonnegative right-hand sides: the slack
// basis is feasible and phase 1 has no artificials. Floors that do not
// fit flip a row's normalized sense, and phase 1 reports
// ErrInfeasible. The reduced optimum stays in s.sol until the next
// solve on this session.
func (s *rebuild) maximizeTotal(rows [][]float64, basic []float64, frozen []bool, value []float64) (float64, error) {
	k, off := s.reduce(frozen, value, basic)
	s.prob.Reset(k)
	for j := 0; j < k; j++ {
		if err := s.prob.SetObjectiveCoeff(j, 1); err != nil {
			return 0, err
		}
	}
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return 0, err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	return s.sol.Objective + off, nil
}

// buildProbe rebuilds the session's program as one refinement round's
// shared per-variable probe LP in reduced form. The probe floors
// max(basic_i, w_i·t − ε) are folded into the shifts, so the program
// is the clique rows plus the single total-optimality row; only the
// objective changes between targets (see probe).
func (s *rebuild) buildProbe(rows [][]float64, basic, weights []float64, opt float64, frozen []bool, value []float64, t float64) error {
	n := len(basic)
	s.floor = slices.Grow(s.floor[:0], n)[:n]
	for i := range s.floor {
		s.floor[i] = max(basic[i], weights[i]*t-optTol)
	}
	k, off := s.reduce(frozen, value, s.floor)
	s.prob.Reset(k)
	s.probed = -1
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return err
	}
	return s.addTotalRow(k, k, opt-optTol-off)
}

// settle rebuilds the round's floor LP with t fixed at t, each
// unfrozen x_i shifted by its floor w_i·t, and solves it cold for the
// optimum session.settle selects, min Σ (1 + i/n)·(x_i − w_i·t) over
// the unfrozen flows; the optimum replaces s.point.
func (s *rebuild) settle(rows [][]float64, weights []float64, opt float64, frozen []bool, value []float64, t float64) error {
	n := len(weights)
	s.floor = slices.Grow(s.floor[:0], n)[:n]
	for i, w := range weights {
		s.floor[i] = w * t
	}
	k, off := s.reduce(frozen, value, s.floor)
	s.prob.Reset(k)
	for i, c := range s.col {
		if c >= 0 {
			if err := s.prob.SetObjectiveCoeff(c, -(1 + float64(i)/float64(n))); err != nil {
				return err
			}
		}
	}
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return err
	}
	if err := s.addTotalRow(k, k, opt-optTol-off); err != nil {
		return err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return err
	}
	for i, c := range s.col {
		if c >= 0 {
			s.point[i] = s.sol.X[c] + s.shift[i]
		}
	}
	return nil
}

// probe returns the largest x_i over the probe program. Each probe
// after the first on one program re-optimizes in place from the vertex
// the previous probe left in the solver's tableau.
func (s *rebuild) probe(i int) (float64, error) {
	if s.probed >= 0 {
		if err := s.prob.SetObjectiveCoeff(s.col[s.probed], 0); err != nil {
			return 0, err
		}
	}
	s.probed = i
	if err := s.prob.SetObjectiveCoeff(s.col[i], 1); err != nil {
		return 0, err
	}
	if err := s.solver.ReoptimizeInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	return s.sol.X[s.col[i]] + s.shift[i], nil
}
