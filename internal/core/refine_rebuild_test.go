package core

import (
	"slices"

	"e2efair/internal/lp"
)

// The refinement as it ran before the group's program was kept in one
// tableau is kept here as the reference the oracles build on
// (refine_oracle_test.go, refine_floorrows_test.go): every LP is
// rebuilt from scratch in reduced form and solved cold.

// rebuild is the per-LP rebuild refinement's solver state: one
// lp.Problem every LP is rebuilt in, the reduced form's column and row
// scratch, and copies of the floor LP's consistent optimal point and
// its dual-certified blocking flows.
type rebuild struct {
	solver *lp.Solver
	sol    lp.Solution
	prob   lp.Problem

	col   []int     // reduced column per flow, −1 when frozen
	shift []float64 // per-flow shift of the reduced form
	floor []float64 // probe shifts
	buf   []float64 // one constraint row

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
	for remaining, first := n, true; remaining > 0; first = false {
		// Every round keeps the first round's total row, as
		// session.refineMaxMin does.
		t, err := s.maximizeFloorRows(rows, basic, weights, opt, frozen, value, first)
		if err != nil {
			return nil, err
		}
		// A certified flow sits at its floor at every optimum, and the
		// floor LP's point is one consistent optimum: it is the freeze
		// target, as in session.refineMaxMin.
		anyFrozen := false
		for i := 0; i < n; i++ {
			if !frozen[i] && s.blocking[i] && s.point[i] <= weights[i]*t+freezeTol {
				frozen[i], value[i] = true, s.point[i]
				remaining--
				anyFrozen = true
			}
		}
		if !anyFrozen {
			// The stall fallback of session.refineMaxMin.
			for i := 0; i < n; i++ {
				if !frozen[i] {
					frozen[i], value[i] = true, s.point[i]
					remaining--
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
// objective changes between targets.
func (s *rebuild) buildProbe(rows [][]float64, basic, weights []float64, opt float64, frozen []bool, value []float64, t float64) error {
	n := len(basic)
	s.floor = slices.Grow(s.floor[:0], n)[:n]
	for i := range s.floor {
		s.floor[i] = max(basic[i], weights[i]*t-optTol)
	}
	k, off := s.reduce(frozen, value, s.floor)
	s.prob.Reset(k)
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return err
	}
	return s.addTotalRow(k, k, opt-optTol-off)
}
