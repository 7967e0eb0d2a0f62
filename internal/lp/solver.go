package lp

import (
	"errors"
	"fmt"
	"math"
)

// Solver is a reusable bounded-variable simplex engine: a two-phase
// primal simplex for cold solves, and a dual simplex that repairs a
// retained optimal tableau after its bounds, right-hand sides or
// columns are edited. It keeps every piece of working state (one
// flat, contiguous, row-major tableau plus basis, bound, cost and
// reduced-cost rows) across solves, so the steady-state re-solve loop
// allocates nothing.
//
// The tableau is compact: it stores only the nonbasic columns. A basic
// variable's column is a unit vector, so storing it buys nothing, and
// on the allocation's clique-capacity programs, where every ≤ row
// brings a basic slack, the basic columns are most of a full tableau's
// width. A pivot moves the leaving variable into the entering
// variable's column slot. Ties in pricing and in choosing a phase-1
// drive-out column go to the smallest variable index, not the smallest
// slot, so the compact tableau takes exactly the pivots a full tableau
// would and computes the same values on every column it keeps; only
// the sign of a zero can differ (pinned by fulltableau_test.go).
//
// Every variable has bounds lo ≤ x ≤ hi; a nonbasic variable rests at
// one of them, or anywhere between them once an edit has relaxed its
// bounds (pricing then lets it move either way), and each row's RHS
// slot holds its basic variable's value. With the default bounds [0, +Inf) every
// nonbasic variable rests at 0, the RHS slots hold B⁻¹b, and a solve
// takes exactly the pivots and the arithmetic of a textbook tableau.
//
// Pricing is Dantzig's rule (most negative reduced cost), which on the
// clique-capacity programs of phase 1 reaches the optimum in far fewer
// pivots than Bland's rule. Degenerate programs can cycle under
// Dantzig, so after stallLimit consecutive pivots without objective
// improvement the solver falls back to Bland's rule — restoring the
// termination guarantee — and returns to Dantzig on the next strict
// improvement.
//
// After a successful solve the Solver retains the optimal tableau, so
// Dual and ReducedCost read the constraints' shadow prices and the
// variables' reduced costs off it, SetBounds, SetRHS and AddColumn
// edit it in place, and ReoptimizeInto re-solves from it.
//
// A Solver is not safe for concurrent use; give each goroutine its
// own.
type Solver struct {
	// Variables are numbered 0..n-1 for the decision variables,
	// n..n+nSlack-1 for slacks and surpluses and n+nSlack..width-1 for
	// artificials. The flat tableau has m rows × stride entries,
	// row-major: slot k < cols holds the column of variable
	// nonbasic[k], and slot cols holds the row's basic value.
	tab    []float64
	stride int
	cols   int
	m      int
	n      int
	width  int
	nSlack int
	nArt   int

	basis    []int     // basis[i] is row i's basic variable
	nonbasic []int     // nonbasic[k] is the variable in slot k
	where    []int     // where[v] is v's slot, or -1 while v is basic
	z        []float64 // reduced-cost row over the slots, len stride
	cost     []float64 // cost of each variable, len width
	nz       []int     // pivot-row scratch: slots with a nonzero entry

	// lo and hi bound every variable, len width; val[v] is where a
	// nonbasic v rests, and room[k] records which ways the variable in
	// slot k may move from there (canRise, canFall).
	lo, hi, val []float64
	room        []uint8

	// dualVar[i] is the variable whose final reduced cost prices
	// constraint i — its slack, surplus or artificial — and
	// dualSign[i] maps that reduced cost to ∂objective/∂b_i, undoing
	// the surplus column's −1 and the negative-RHS row flip.
	// Artificials keep their slots after phase 1, masked from pricing,
	// so an equality row's dual can still be read.
	dualVar  []int
	dualSign []float64
	ncons    int // constraint count of the loaded problem

	// binv[i] is the variable whose tableau column is column i of the
	// basis inverse — row i's slack, or its artificial — rowSign[i] is
	// the sign the row was normalized by, and rhsAt[i] is the finite
	// right-hand side the RHS slots reflect. SetRHS and refresh
	// apply their edits through them.
	binv    []int
	rowSign []float64
	rhsAt   []float64
	// dropped records that phase 1 removed a redundant row, whose
	// right-hand side and coefficients the tableau no longer carries.
	dropped bool
	// edited records bound, RHS or column edits since the last solve.
	edited bool
	// lazy lets pivots skip the columns of fixed nonbasic decision
	// variables, which can never enter: a skipped column is marked
	// stale, skipped by every later pivot, and recomputed from the
	// basis inverse (refresh) only when its variable is freed or
	// moved. Set after phase 1 of a program with no dropped row, whose
	// inverse covers every row.
	lazy   bool
	stale  []bool
	moved  []int     // load scratch: decision variables starting off 0
	colIn  []float64 // refresh scratch: the column's coefficients
	colBuf []float64 // refresh scratch: the recomputed tableau column

	// last is the problem whose optimal tableau the solver holds, at
	// version lastVersion; nil unless the latest solve succeeded.
	// Holding the pointer keeps the address from being reused by a
	// different Problem.
	last        *Problem
	lastVersion uint64

	solves, cold, pivots int // cumulative work, see Work

	// stallLimit counts consecutive non-improving pivots tolerated
	// under Dantzig pricing before the Bland fallback; maxIter, when
	// positive, overrides the default iteration cap. Fields rather
	// than constants so tests can force each regime.
	stallLimit int
	maxIter    int
}

// room bits: a nonbasic variable below its upper bound can rise, one
// above its lower bound can fall.
const (
	canRise uint8 = 1 << iota
	canFall
)

// defaultStallLimit bounds the degenerate plateau a Dantzig-priced run
// may walk before anti-cycling kicks in.
const defaultStallLimit = 64

// NewSolver returns an empty Solver; its buffers grow to fit the first
// problems it sees and are reused afterwards.
func NewSolver() *Solver {
	return &Solver{stallLimit: defaultStallLimit}
}

// Solve runs the two-phase simplex method on p from a cold start and
// returns an optimal solution, ErrInfeasible, or ErrUnbounded.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	sol := &Solution{}
	if err := s.SolveInto(p, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto is Solve writing the result into sol, reusing sol.X when
// its capacity suffices.
func (s *Solver) SolveInto(p *Problem, sol *Solution) error {
	s.last = nil
	s.solves++
	s.cold++
	s.load(p)
	if err := s.phase1(); err != nil {
		return err
	}
	s.lazy = !s.dropped
	s.setCost(p)
	s.price()
	obj, err := s.primal(s.n + s.nSlack)
	if err != nil {
		return err
	}
	s.extract(sol, obj)
	s.last, s.lastVersion = p, p.version
	return nil
}

// ReoptimizeInto re-solves p from the optimal tableau the last solve
// of p left behind. Edits made through this Solver's SetBounds, SetRHS
// and AddColumn are repaired by the dual simplex — after shifting to
// zero any reduced cost an objective edit left with the wrong sign —
// and the primal simplex then optimizes the current objective
// (SetObjective, SetObjectiveCoeff). With only the objective changed
// the retained vertex is still feasible and the primal simplex runs
// alone. When the last successful solve was of another problem, or p
// changed since other than through this Solver's edits (AddConstraint,
// Reset, Problem.SetBounds, ...), or no solve has succeeded yet, it
// falls back to a cold two-phase solve, so the result is always p's
// optimum. A dual simplex that exceeds its iteration budget falls back
// the same way.
func (s *Solver) ReoptimizeInto(p *Problem, sol *Solution) error {
	if !s.holds(p) {
		return s.SolveInto(p, sol)
	}
	s.last = nil
	s.solves++
	s.setCost(p)
	s.price()
	if s.edited {
		s.edited = false
		if err := s.repair(); err != nil {
			if !errors.Is(err, ErrIterationLimit) {
				return err
			}
			s.solves-- // the cold solve counts itself
			return s.SolveInto(p, sol)
		}
	}
	obj, err := s.primal(s.n + s.nSlack)
	if err != nil {
		return err
	}
	s.extract(sol, obj)
	s.last = p
	return nil
}

// holds reports whether s retains p's current optimal tableau.
func (s *Solver) holds(p *Problem) bool {
	return s.last == p && s.lastVersion == p.version
}

// SetBounds is p.SetBounds, also applied to the optimal tableau of p
// that s retains, if it does: a nonbasic x_j keeps its value when the
// new bounds hold it and otherwise moves to the nearer one, and the
// next ReoptimizeInto repairs the tableau instead of solving p cold.
func (s *Solver) SetBounds(p *Problem, j int, lo, hi float64) error {
	warm, version := s.holds(p), p.version
	if err := p.SetBounds(j, lo, hi); err != nil || p.version == version {
		return err
	}
	if warm {
		s.lastVersion = p.version
		s.bound(j, lo, hi)
	}
	return nil
}

// SetRHS is p.SetRHS, also applied to the optimal tableau of p that s
// retains, if it does, as SetBounds is. A row that phase 1 found
// redundant cannot take the edit; the tableau is then dropped and the
// next ReoptimizeInto solves p cold.
func (s *Solver) SetRHS(p *Problem, i int, rhs float64) error {
	warm, version := s.holds(p), p.version
	if err := p.SetRHS(i, rhs); err != nil || p.version == version || !warm {
		return err
	}
	if s.dropped {
		s.last = nil
		return nil
	}
	s.lastVersion = p.version
	sense, v := p.constraints[i].Sense, s.dualVar[i]
	if math.IsInf(rhs, 0) {
		s.bound(v, math.Inf(-1), math.Inf(1))
		return nil
	}
	if d := rhs - s.rhsAt[i]; d != 0 {
		s.axpy(s.tab, s.cols, s.stride, s.binv[i], s.rowSign[i]*d)
		s.rhsAt[i] = rhs
		s.edited = true
	}
	if sense == EQ {
		return nil
	}
	// The row's slack or surplus keeps the sign that makes the row
	// hold: ≥ 0 when it enters the normalized row the way a ≤ row's
	// slack does, ≤ 0 otherwise.
	if (sense == LE) == (s.dualSign[i] > 0) {
		s.bound(v, 0, math.Inf(1))
	} else {
		s.bound(v, math.Inf(-1), 0)
	}
	return nil
}

// AddColumn is p.AddColumn, also applied to the optimal tableau of p
// that s retains, if it does: x_j's tableau column gains f times
// x_k's, in O(rows). A basic x_j is first exchanged out of the basis
// for the nonbasic column with the largest entry in its row; when no
// column can take its place, the tableau is dropped and the next
// ReoptimizeInto solves p cold.
func (s *Solver) AddColumn(p *Problem, j, k int, f float64) error {
	warm := s.holds(p)
	if err := p.AddColumn(j, k, f); err != nil {
		return err
	}
	if !warm {
		return nil
	}
	if s.where[j] < 0 && !s.pivotOut(j) {
		s.last = nil
		return nil
	}
	s.lastVersion = p.version
	if s.stale[k] {
		s.refresh(k)
	}
	if v := s.val[j]; v != 0 {
		s.axpy(s.tab, s.cols, s.stride, k, -f*v)
	}
	if !s.stale[j] {
		s.axpy(s.tab, s.where[j], s.stride, k, f)
	}
	s.edited = true
	return nil
}

// binvTimes returns B⁻¹ times the normalized column whose original
// coefficients are coeffs, read off the basis inverse's columns, in
// the solver's column scratch.
func (s *Solver) binvTimes(coeffs []float64) []float64 {
	s.colBuf = growFloat(s.colBuf, s.m)
	col := s.colBuf
	clear(col)
	for i, a := range coeffs {
		if a != 0 {
			s.axpy(col, 0, 1, s.binv[i], s.rowSign[i]*a)
		}
	}
	return col
}

// refresh recomputes nonbasic decision variable v's stale column from
// the coefficients of the program s holds.
func (s *Solver) refresh(v int) {
	s.colIn = growFloat(s.colIn, s.ncons)
	for i, c := range s.last.constraints {
		s.colIn[i] = c.Coeffs[v]
	}
	col := s.binvTimes(s.colIn)
	k := s.where[v]
	for i, c := range col {
		s.tab[i*s.stride+k] = c
	}
	s.stale[v] = false
}

// bound sets variable v's bounds in the tableau. A nonbasic v keeps
// its value when the new bounds hold it and otherwise moves to the
// nearer one, shifting the basic values with it.
func (s *Solver) bound(v int, lo, hi float64) {
	s.lo[v], s.hi[v] = lo, hi
	s.edited = true
	if s.where[v] < 0 {
		return
	}
	to := min(max(s.val[v], lo), hi)
	if s.stale[v] && (lo != hi || to != s.val[v]) {
		s.refresh(v)
	}
	if d := to - s.val[v]; d != 0 {
		s.axpy(s.tab, s.cols, s.stride, v, -d)
		s.val[v] = to
	}
	s.room[s.where[v]] = s.roomOf(v)
}

// roomOf is the room bits of nonbasic variable v.
func (s *Solver) roomOf(v int) uint8 {
	var r uint8
	if s.val[v] < s.hi[v] {
		r |= canRise
	}
	if s.val[v] > s.lo[v] {
		r |= canFall
	}
	return r
}

// axpy adds f times variable v's tableau column to the vector
// dst[off], dst[off+step], ... over the rows.
func (s *Solver) axpy(dst []float64, off, step, v int, f float64) {
	if k := s.where[v]; k >= 0 {
		for i := 0; i < s.m; i++ {
			dst[off+i*step] += f * s.tab[i*s.stride+k]
		}
		return
	}
	for i, b := range s.basis[:s.m] {
		if b == v {
			dst[off+i*step] += f
			return
		}
	}
}

// pivotOut exchanges basic variable v for the non-artificial, unfixed
// nonbasic column with the largest entry in v's row, v leaving at its
// bound nearest its value (at its value, if it is free). It reports
// false when every such entry is within tol of zero.
func (s *Solver) pivotOut(v int) bool {
	r := -1
	for i, b := range s.basis[:s.m] {
		if b == v {
			r = i
		}
	}
	row := s.row(r)
	col, best := -1, tol
	for k, j := range s.nonbasic[:s.cols] {
		if a := math.Abs(row[k]); j < s.n+s.nSlack && s.lo[j] != s.hi[j] && a > best {
			col, best = k, a
		}
	}
	if col < 0 {
		return false
	}
	x, lo, hi := row[s.cols], s.lo[v], s.hi[v]
	to := x
	switch {
	case !math.IsInf(lo, -1) && (math.IsInf(hi, 1) || x-lo <= hi-x):
		to = lo
	case !math.IsInf(hi, 1):
		to = hi
	}
	// Keep the columns that are current so: the caller is about to
	// move a fixed variable, whose column a lazy pivot would leave
	// stale.
	lazy := s.lazy
	s.lazy = false
	s.pivot(r, col, to)
	s.lazy = lazy
	s.edited = true
	return true
}

// Dual returns constraint i's shadow price at the optimum of the last
// successful solve: y_i = ∂objective/∂b_i, read off the final
// reduced-cost row, so with the default bounds Σ b_i·y_i equals the
// objective, y_i ≥ 0 on a ≤ row and y_i ≤ 0 on a ≥ row. A row with
// y_i ≠ 0 is tight at every optimum. Dual returns 0 for an
// out-of-range i or when the last solve failed.
func (s *Solver) Dual(i int) float64 {
	if s.last == nil || i < 0 || i >= s.ncons {
		return 0
	}
	k := s.where[s.dualVar[i]]
	if k < 0 {
		return 0 // a basic variable's reduced cost is zero
	}
	return s.dualSign[i] * s.z[k]
}

// ReducedCost returns decision variable j's reduced cost at the
// optimum of the last successful solve: the rate at which the
// objective falls as x_j rises from its bound, read off the final
// reduced-cost row. It is ≥ 0 at a maximum for a variable at its
// lower bound (≤ 0 at its upper), and a variable at its lower bound
// whose reduced cost is positive stays there at every optimum
// (complementary slackness). ReducedCost returns 0 for a basic or a
// fixed variable, an out-of-range j, or when the last solve failed.
func (s *Solver) ReducedCost(j int) float64 {
	if s.last == nil || j < 0 || j >= s.n || s.lo[j] == s.hi[j] {
		return 0
	}
	k := s.where[j]
	if k < 0 {
		return 0
	}
	return s.z[k]
}

// Work reports the solver's cumulative effort since NewSolver: LP
// solves of every kind (cold and re-optimized), the cold ones among
// them (SolveInto, including ReoptimizeInto's fallback to it), and
// tableau pivots.
func (s *Solver) Work() (solves, cold, pivots int) { return s.solves, s.cold, s.pivots }

func (s *Solver) row(i int) []float64 { return s.tab[i*s.stride : (i+1)*s.stride] }

// rest is where a nonbasic variable bounded [lo, hi] starts: at its
// lower bound if finite, else its upper, else 0.
func rest(lo, hi float64) float64 {
	switch {
	case !math.IsInf(lo, -1):
		return lo
	case !math.IsInf(hi, 1):
		return hi
	}
	return 0
}

// load normalizes p into the tableau exactly as the seed's reference
// Solve (reference_test.go) does: every row an equality with RHS ≥ 0,
// LE rows gaining a slack, GE rows a surplus and an artificial, EQ
// rows an artificial. The slacks and artificials form the starting
// basis, so the only columns stored are the decision variables' and
// the surpluses'. Each decision variable starts at rest(lo, hi), so a
// row's RHS is b minus its activity there; a vacuous row gets a free
// slack.
func (s *Solver) load(p *Problem) {
	m := len(p.constraints)
	n := p.n
	s.moved = s.moved[:0]
	for j, lo := range p.lo[:n] {
		if rest(lo, p.hi[j]) != 0 {
			s.moved = append(s.moved, j)
		}
	}
	nSlack, nArt, nGE := 0, 0, 0
	for _, c := range p.constraints {
		r, vacuous := s.residual(p, c)
		switch rowSense(c.Sense, r, vacuous) {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
			nGE++
		default:
			nArt++
		}
	}
	width := n + nSlack + nArt
	cols := n + nGE
	stride := cols + 1
	s.m, s.n, s.width, s.cols, s.stride, s.nSlack, s.nArt = m, n, width, cols, stride, nSlack, nArt
	s.dropped, s.edited, s.lazy = false, false, false
	s.tab = growFloat(s.tab, m*stride)
	clear(s.tab)
	s.basis = growInt(s.basis, m)
	s.nonbasic = growInt(s.nonbasic, cols)
	s.nz = growInt(s.nz, cols)[:0]
	where := growInt(s.where, width)
	for v := n; v < width; v++ {
		where[v] = -1
	}
	for j := 0; j < n; j++ {
		s.nonbasic[j], where[j] = j, j
	}
	s.where = where
	// Slacks, surpluses and artificials are bounded [0, +Inf) and rest
	// at 0; every variable's column is current.
	s.lo, s.hi = growFloat(s.lo, width), growFloat(s.hi, width)
	s.val, s.stale = growFloat(s.val, width), growBool(s.stale, width)
	s.room = growUint8(s.room, cols)
	copy(s.lo, p.lo[:n])
	clear(s.lo[n:])
	copy(s.hi, p.hi[:n])
	for v := n; v < width; v++ {
		s.hi[v] = math.Inf(1)
	}
	clear(s.val)
	for _, j := range s.moved {
		s.val[j] = rest(p.lo[j], p.hi[j])
	}
	clear(s.stale)
	s.ncons = m
	s.dualVar = growInt(s.dualVar, m)
	s.dualSign = growFloat(s.dualSign, m)
	s.binv = growInt(s.binv, m)
	s.rowSign = growFloat(s.rowSign, m)
	s.rhsAt = growFloat(s.rhsAt, m)
	slackAt, artAt, surplusAt := n, n+nSlack, n
	for i, c := range p.constraints {
		row := s.tab[i*stride : i*stride+stride]
		b, vacuous := s.residual(p, c)
		sense := rowSense(c.Sense, b, vacuous)
		sign := 1.0
		if b < 0 && !vacuous {
			b = -b
			sign = -1
			for j, v := range c.Coeffs {
				row[j] = -v
			}
		} else {
			copy(row, c.Coeffs)
		}
		row[cols] = b
		s.rowSign[i] = sign
		s.rhsAt[i] = c.RHS
		if vacuous {
			s.rhsAt[i] = 0
		}
		switch sense {
		case LE:
			s.basis[i] = slackAt
			s.dualVar[i], s.dualSign[i] = slackAt, sign
			s.binv[i] = slackAt
			if vacuous {
				s.lo[slackAt] = math.Inf(-1)
			}
			slackAt++
		case GE:
			row[surplusAt] = -1
			s.nonbasic[surplusAt], s.where[slackAt] = slackAt, surplusAt
			surplusAt++
			s.dualVar[i], s.dualSign[i] = slackAt, -sign
			slackAt++
			s.basis[i], s.binv[i] = artAt, artAt
			artAt++
		default:
			s.basis[i], s.binv[i] = artAt, artAt
			s.dualVar[i], s.dualSign[i] = artAt, sign
			artAt++
		}
	}
	for k, v := range s.nonbasic[:cols] {
		s.room[k] = s.roomOf(v)
	}
}

// residual is p's row c's RHS less its activity at the start point,
// and reports a vacuous row, whose RHS counts as 0.
func (s *Solver) residual(p *Problem, c Constraint) (r float64, vacuous bool) {
	r = c.RHS
	if vacuous = r > math.MaxFloat64 || r < -math.MaxFloat64; vacuous {
		r = 0
	}
	for _, j := range s.moved {
		if a := c.Coeffs[j]; a != 0 {
			r -= a * rest(p.lo[j], p.hi[j])
		}
	}
	return r, vacuous
}

// rowSense is the sense of a row with residual RHS r after the
// negative-RHS flip; a vacuous row loads as a ≤ row with a free slack.
func rowSense(sense Sense, r float64, vacuous bool) Sense {
	if vacuous {
		return LE
	}
	return normSense(Constraint{Sense: sense, RHS: r})
}

// normSense is the constraint's sense after the negative-RHS flip.
func normSense(c Constraint) Sense {
	if c.RHS < 0 {
		switch c.Sense {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return c.Sense
}

func (s *Solver) phase1() error {
	if s.nArt == 0 {
		return nil
	}
	s.cost = growFloat(s.cost, s.width)
	artStart := s.n + s.nSlack
	for j := range s.cost {
		if j < artStart {
			s.cost[j] = 0
		} else {
			s.cost[j] = -1
		}
	}
	s.price()
	obj, err := s.primal(s.width)
	if err != nil {
		// Phase 1 is bounded by construction; an unbounded report
		// indicates numerical trouble and is surfaced as such.
		return fmt.Errorf("lp: phase 1: %w", err)
	}
	if obj < -1e-7 {
		return ErrInfeasible
	}
	// Drive any artificial still in the basis (at value 0) out through
	// the lowest-numbered non-artificial variable it can be exchanged
	// for; a row with none is redundant and is marked (basis -1) for
	// removal.
	for i := 0; i < s.m; i++ {
		if s.basis[i] < artStart {
			continue
		}
		row := s.row(i)
		col, v := -1, artStart
		for k, j := range s.nonbasic[:s.cols] {
			if j < v && math.Abs(row[k]) > tol {
				col, v = k, j
			}
		}
		if col < 0 {
			s.basis[i] = -1
			continue
		}
		s.pivot(i, col, 0)
	}
	// Remove redundant rows in one compaction pass — O(m) row moves
	// where the reference's repeated middle deletion is O(m²).
	w := 0
	for i := 0; i < s.m; i++ {
		if s.basis[i] < 0 {
			continue
		}
		if w != i {
			copy(s.row(w), s.row(i))
			s.basis[w] = s.basis[i]
		}
		w++
	}
	s.dropped = w < s.m
	s.m = w
	return nil
}

// setCost loads p's objective as the cost of the decision variables,
// the slacks and artificials costing nothing.
func (s *Solver) setCost(p *Problem) {
	s.cost = growFloat(s.cost, s.width)
	copy(s.cost, p.objective)
	for j := s.n; j < s.width; j++ {
		s.cost[j] = 0
	}
}

// price computes the reduced-cost row z from the cost vector: z_k is
// the reduced cost of the variable in slot k, and z[cols] the
// objective at the current point.
func (s *Solver) price() {
	cols := s.cols
	s.z = growFloat(s.z, s.stride)
	z := s.z
	nonbasic := s.nonbasic[:cols]
	for k, j := range nonbasic {
		z[k] = -s.cost[j]
	}
	z[cols] = 0
	tab, stride := s.tab, s.stride
	for i, b := range s.basis[:s.m] {
		cb := s.cost[b]
		if cb == 0 {
			continue
		}
		row := tab[i*stride : i*stride+len(z)]
		for k := range z {
			z[k] += cb * row[k]
		}
	}
	for _, j := range nonbasic {
		if v, c := s.val[j], s.cost[j]; v != 0 && c != 0 {
			z[cols] += c * v
		}
	}
}

// gain is what pricing sees in slot k: the larger rate of objective
// gain over the directions its variable may move in, and that
// direction (+1 up, −1 down). A fixed variable gains −Inf.
func (s *Solver) gain(k int) (float64, float64) {
	z := s.z[k]
	switch s.room[k] {
	case canRise:
		return -z, 1
	case canFall:
		return z, -1
	case canRise | canFall:
		if z > 0 {
			return z, -1
		}
		return -z, 1
	}
	return math.Inf(-1), 0
}

// primal optimizes maximize costᵀx over the tableau in place from the
// reduced-cost row price left, considering variables below enterLimit
// as entering candidates, and returns the optimal objective value.
// The ratio test bounds the step by every basic variable's bounds and
// by the entering variable's own: an entering variable that reaches
// its other bound first flips to it without a pivot.
func (s *Solver) primal(enterLimit int) (float64, error) {
	cols := s.cols
	z := s.z
	nonbasic := s.nonbasic[:cols]
	tab, stride, basis := s.tab, s.stride, s.basis[:s.m]
	lo, hi, room := s.lo, s.hi, s.room
	limit := s.maxIter
	if limit <= 0 {
		limit = 10000 * (s.m + s.width + 1)
	}
	stall := 0
	for iter := 0; ; iter++ {
		if iter > limit {
			return 0, fmt.Errorf("%w (%d iterations over %d rows × %d columns)", ErrIterationLimit, iter, s.m, s.width)
		}
		// enter is a slot; ties go to the lower-numbered variable.
		enter, ev := -1, enterLimit
		if stall < s.stallLimit {
			// Dantzig: largest rate of gain.
			best := tol
			for k, j := range nonbasic {
				if j >= enterLimit {
					continue
				}
				g := -z[k] // the common case: free to rise only
				if room[k] != canRise {
					g, _ = s.gain(k)
				}
				if g > best || g == best && enter >= 0 && j < ev {
					best, enter, ev = g, k, j
				}
			}
		} else {
			// Bland: smallest variable with a gain.
			for k, j := range nonbasic {
				if j >= ev {
					continue
				}
				if g, _ := s.gain(k); g > tol {
					enter, ev = k, j
				}
			}
		}
		if enter == -1 {
			return z[cols], nil
		}
		_, dir := s.gain(enter)
		// Leaving row: minimum ratio; ties to the smallest basis index
		// (Bland), which with Bland pricing forbids cycling.
		leave := -1
		bestRatio := math.Inf(1)
		for i, b := range basis {
			a := dir * tab[i*stride+enter]
			var ratio float64
			if a > tol {
				if l := lo[b]; l != math.Inf(-1) {
					ratio = (tab[i*stride+cols] - l) / a
				} else {
					continue
				}
			} else if a < -tol {
				if h := hi[b]; h != math.Inf(1) {
					ratio = (h - tab[i*stride+cols]) / -a
				} else {
					continue
				}
			} else {
				continue
			}
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave == -1 || b < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		prev := z[cols]
		q := nonbasic[enter]
		reach := hi[q] - s.val[q]
		if dir < 0 {
			reach = s.val[q] - lo[q]
		}
		switch {
		case reach != math.Inf(1) && (leave == -1 || reach <= bestRatio):
			// The entering variable reaches its other bound first.
			to := hi[q]
			if dir < 0 {
				to = lo[q]
			}
			step := to - s.val[q]
			for i := range basis {
				tab[i*stride+cols] -= step * tab[i*stride+enter]
			}
			s.val[q] = to
			s.room[enter] = s.roomOf(q)
			z[cols] -= z[enter] * step
		case leave == -1:
			return 0, ErrUnbounded
		default:
			b := basis[leave]
			to := lo[b]
			if a := tab[leave*stride+enter]; dir < 0 && a > 0 || dir > 0 && a < 0 {
				to = hi[b]
			}
			s.reprice(leave, enter, s.pivot(leave, enter, to))
		}
		if z[cols] > prev+tol {
			stall = 0 // progress: back to Dantzig pricing
		} else {
			stall++
		}
	}
}

// reprice updates the reduced-cost row after a pivot on (row, col)
// whose entering variable moved by step.
func (s *Solver) reprice(row, col int, step float64) {
	z := s.z
	if factor := z[col]; factor != 0 {
		z[col] = 0
		lrow := s.row(row)
		for _, k := range s.nz {
			z[k] -= factor * lrow[k]
		}
		z[s.cols] -= factor * step
	}
}

// repair restores primal feasibility after bound, RHS or column edits.
// Reduced costs with the wrong sign for their variable's resting bound
// are first shifted to zero, so the dual simplex starts dual feasible
// (the cost-shifting start of Koberstein's bounded dual simplex, PhD
// thesis, Paderborn 2005); the row is re-priced from the true costs
// once the basis is primal feasible, for the primal simplex to finish.
func (s *Solver) repair() error {
	feasible := true
	for i, b := range s.basis[:s.m] {
		if x := s.tab[i*s.stride+s.cols]; x < s.lo[b]-tol || x > s.hi[b]+tol {
			feasible = false
			break
		}
	}
	if feasible {
		return nil
	}
	shifted := false
	limit := s.n + s.nSlack
	for k, j := range s.nonbasic[:s.cols] {
		if j >= limit {
			continue
		}
		if g, _ := s.gain(k); g > tol {
			s.z[k] = 0
			shifted = true
		}
	}
	if err := s.dual(limit); err != nil {
		return err
	}
	if shifted {
		s.price()
	}
	return nil
}

// dual runs the bounded dual simplex on a dual-feasible tableau until
// every basic variable is within its bounds, considering variables
// below enterLimit as entering candidates. The leaving row is the
// largest bound violation; the entering column passes a two-pass
// (Harris) ratio test, which among the columns whose ratio is within
// tol of the smallest takes the largest pivot. A violated row with no
// entering candidate proves the program infeasible.
func (s *Solver) dual(enterLimit int) error {
	cols, stride := s.cols, s.stride
	tab, basis, nonbasic := s.tab, s.basis[:s.m], s.nonbasic[:cols]
	z, lo, hi, room := s.z, s.lo, s.hi, s.room
	limit := s.maxIter
	if limit <= 0 {
		limit = 50 * (s.m + s.width + 1)
	}
	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("%w (dual simplex, %d iterations over %d rows × %d columns)", ErrIterationLimit, iter, s.m, s.width)
		}
		leave, worst := -1, tol
		for i, b := range basis {
			x := tab[i*stride+cols]
			d := lo[b] - x
			if x > hi[b] {
				d = x - hi[b]
			}
			if d > worst || d == worst && leave >= 0 && b < basis[leave] {
				leave, worst = i, d
			}
		}
		if leave == -1 {
			return nil
		}
		b := basis[leave]
		row := s.row(leave)
		to, up := lo[b], 1.0 // the leaving variable rises to lo ...
		if row[cols] > hi[b] {
			to, up = hi[b], -1 // ... or falls to hi
		}
		// A nonbasic x_k moving by Δ moves the leaving variable by
		// −row[k]·Δ, so it must rise (Δ > 0) where up·row[k] < 0 and
		// fall where up·row[k] > 0. ratio is |z_k|/|row[k]|, the
		// dual step that drives z_k to zero.
		eligible := func(k, j int) (a, ratio float64, ok bool) {
			if j >= enterLimit {
				return 0, 0, false
			}
			a = up * row[k]
			switch {
			case a < -tol && room[k]&canRise != 0:
				return -a, max(z[k], 0) / -a, true
			case a > tol && room[k]&canFall != 0:
				return a, max(-z[k], 0) / a, true
			}
			return 0, 0, false
		}
		bound := math.Inf(1)
		for k, j := range nonbasic {
			if a, ratio, ok := eligible(k, j); ok {
				bound = min(bound, ratio+tol/a)
			}
		}
		enter, big := -1, 0.0
		for k, j := range nonbasic {
			if a, ratio, ok := eligible(k, j); ok && ratio <= bound && (a > big || a == big && j < nonbasic[enter]) {
				enter, big = k, a
			}
		}
		if enter == -1 {
			return ErrInfeasible
		}
		s.reprice(leave, enter, s.pivot(leave, enter, to))
	}
}

// pivot performs a Gauss-Jordan pivot on tableau entry (row, col): the
// variable in slot col enters the basis at row, and row's basic
// variable leaves into slot col at the value to. It returns the
// entering variable's step. Before the update, slot col holds what the
// leaving variable's unit column holds in a full tableau — 1 in the
// pivot row, 0 elsewhere — so the arithmetic on every stored entry is
// the full tableau's. The row updates run over the pivot row's
// nonzero slots only (recorded in s.nz for the caller's reduced-cost
// update) and the basic values: subtracting f·0 changes no value, at
// most the sign of a zero. With the entering variable at 0 and the
// leaving one leaving to 0, the step and the basic values are the
// textbook RHS update's, bit for bit.
func (s *Solver) pivot(row, col int, to float64) float64 {
	s.pivots++
	cols := s.cols
	pr := s.row(row)
	pv := pr[col]
	step := (pr[cols] - to) / pv
	pr[col] = 1
	nz := s.nz[:0]
	for j, v := range pr[:cols] {
		if v != 0 {
			if s.room[j] == 0 {
				if u := s.nonbasic[j]; u < s.n && (s.lazy || s.stale[u]) {
					s.stale[u] = true
					continue
				}
			}
			pr[j] = v / pv
			nz = append(nz, j)
		}
	}
	pr[cols] = step
	s.nz = nz
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		r := s.row(i)
		f := r[col]
		if f == 0 {
			continue
		}
		r[col] = 0
		for _, j := range nz {
			r[j] -= f * pr[j]
		}
		r[cols] -= f * step
	}
	enter, leave := s.nonbasic[col], s.basis[row]
	s.basis[row], s.where[enter] = enter, -1
	s.nonbasic[col], s.where[leave] = leave, col
	if v := s.val[enter]; v != 0 {
		pr[cols] = v + step
	}
	s.val[leave] = to
	s.stale[enter], s.stale[leave] = false, false
	s.room[col] = s.roomOf(leave)
	return step
}

func (s *Solver) extract(sol *Solution, obj float64) {
	n := s.n
	if cap(sol.X) < n {
		sol.X = make([]float64, n)
	}
	sol.X = sol.X[:n]
	for _, v := range s.nonbasic[:s.cols] {
		if v < n {
			sol.X[v] = s.val[v]
		}
	}
	for i, b := range s.basis[:s.m] {
		if b >= n {
			continue
		}
		// Clamp tiny bound violations produced by roundoff.
		x := s.tab[i*s.stride+s.cols]
		lo, hi := s.lo[b], s.hi[b]
		if x < lo && x > lo-1e-7 {
			x = lo
		} else if x > hi && x < hi+1e-7 {
			x = hi
		}
		sol.X[b] = x
	}
	sol.Objective = obj
}

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growUint8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
