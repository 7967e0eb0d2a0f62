package core

import (
	"fmt"
	"math"
	"reflect"
)

// The row form of the floor LP, which the substituted form (the floor
// as the bound y_i ≥ 0, see session.floor) replaced, is kept here as
// the reference the substituted form is checked against
// (TestFloorFormsAgree). It writes every unfrozen flow's floor
// x_i ≥ w_i·t as a row beside the clique rows and the total row, and
// certifies a blocking flow by its floor row's dual. It runs on the
// per-LP rebuild state of refine_rebuild_test.go.

// laterT0Tol is how far below t0 a later round's row-form t* may end:
// lp's pivot tolerance. A later round starts from the point the
// previous round froze its flows at, which a cold solve may leave
// slightly outside a floor row (2.7e-9 of a floor row's slack on dense
// seed 10); dense seed 58's t* ends 7e-10 below t0.
const laterT0Tol = 1e-9

// CentralizedRowFloor is CentralizedAllocate with Refine on, each
// round's floor LP solved in the row form. Every round also checks the
// precondition of the substituted form: the row form's t* is at least
// t0 = max basic_i/w_i over the unfrozen flows, up to rounding (1e-12
// relative) in the first round and laterT0Tol in a later one.
func CentralizedRowFloor(inst *Instance) (FlowAllocation, error) {
	return centralizedRefinedWith(inst, func(s *rebuild, rows [][]float64, basic, weights []float64, opt float64) ([]float64, error) {
		return s.refineRows(rows, basic, weights, opt)
	})
}

// FloorRound is one group's first refinement round as each floor form
// solves it.
type FloorRound struct {
	// T and RowT are the round's t* from the refinement's floor LP and
	// from the row form.
	T, RowT float64
	// Rows is the refinement's program's row count, Cliques the
	// group's clique row count.
	Rows, Cliques int
}

// FirstFloorRounds solves each contending flow group's first
// refinement round's floor LP as the refinement does, warm on the
// group's loaded program, and in the row form.
func FirstFloorRounds(inst *Instance) ([]FloorRound, error) {
	s, rows := newSession(), newRebuild()
	var out []FloorRound
	for _, g := range inst.groups() {
		cliques := g.lpRows()
		opt, err := s.load(cliques, g.basic, g.weights)
		if err != nil {
			return nil, err
		}
		frozen := make([]bool, len(g.basic))
		value := make([]float64, len(g.basic))
		r := FloorRound{Cliques: len(cliques)}
		if r.T, err = s.floor(frozen, opt); err != nil {
			return nil, err
		}
		// lp.Problem exports no row count; read its row slice's length.
		r.Rows = reflect.ValueOf(&s.prob).Elem().FieldByName("constraints").Len()
		if r.RowT, err = rows.maximizeFloorRows(cliques, g.basic, g.weights, opt, frozen, value, true); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// maximizeFloorRows is the floor LP in the row form: max t subject
// to the clique rows, the total row and, for every unfrozen flow, the
// floor row reduced to −z_i + w_i·t ≤ basic_i (nonnegative RHS), with
// z_i = x_i − basic_i. It fills s.point and s.blocking as maximizeFloor
// does, blocking read off the floor rows' duals. It fails when t* is
// below t0 by more than rounding in the first round, or by more than
// laterT0Tol in a later one (see CentralizedRowFloor).
func (s *rebuild) maximizeFloorRows(rows [][]float64, basic, weights []float64, opt float64, frozen []bool, value []float64, first bool) (float64, error) {
	n := len(basic)
	k, off := s.reduce(frozen, value, basic)
	s.prob.Reset(k + 1) // reduced columns, then t
	if err := s.prob.SetObjectiveCoeff(k, 1); err != nil {
		return 0, err
	}
	if err := s.addCliqueRows(rows, k, k+1); err != nil {
		return 0, err
	}
	t0 := 0.0
	for i := 0; i < n; i++ {
		if s.col[i] < 0 {
			continue
		}
		t0 = max(t0, basic[i]/weights[i])
		buf := s.rowBuf(k + 1)
		buf[s.col[i]] = -1
		buf[k] = weights[i]
		if err := s.prob.AddLE(buf, basic[i]); err != nil {
			return 0, err
		}
	}
	if err := s.addTotalRow(k, k+1, opt-optTol-off); err != nil {
		return 0, err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	t := s.sol.X[k]
	tol := 1e-12 * math.Max(1, t0)
	if !first {
		tol = laterT0Tol
	}
	if t < t0-tol {
		return 0, fmt.Errorf("floor LP optimum t* = %v below t0 = %v", t, t0)
	}
	s.point = s.point[:0]
	s.blocking = s.blocking[:0]
	for i := 0; i < n; i++ {
		if c := s.col[i]; c >= 0 {
			s.point = append(s.point, s.sol.X[c]+basic[i])
			s.blocking = append(s.blocking, s.solver.Dual(len(rows)+c) > dualTol)
		} else {
			s.point = append(s.point, value[i])
			s.blocking = append(s.blocking, false)
		}
	}
	return t, nil
}
