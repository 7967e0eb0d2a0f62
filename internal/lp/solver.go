package lp

import (
	"fmt"
	"math"
)

// Solver is a reusable two-phase primal simplex engine. It keeps every
// piece of working state (one flat, contiguous, row-major tableau plus
// basis, cost and reduced-cost rows) across solves, so the
// steady-state re-solve loop allocates nothing.
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
// variables' reduced costs off it and ReoptimizeInto re-prices it in
// place after an objective-only change.
//
// A Solver is not safe for concurrent use; give each goroutine its
// own.
type Solver struct {
	// Variables are numbered 0..n-1 for the decision variables,
	// n..n+nSlack-1 for slacks and surpluses and n+nSlack..width-1 for
	// artificials. The flat tableau has m rows × stride entries,
	// row-major: slot k < cols holds the column of variable
	// nonbasic[k], and slot cols holds the RHS.
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

	// dualVar[i] is the variable whose final reduced cost prices
	// constraint i — its slack, surplus or artificial — and
	// dualSign[i] maps that reduced cost to ∂objective/∂b_i, undoing
	// the surplus column's −1 and the negative-RHS row flip.
	// Artificials keep their slots after phase 1, masked from pricing,
	// so an equality row's dual can still be read.
	dualVar  []int
	dualSign []float64
	ncons    int // constraint count of the loaded problem

	// last is the problem whose optimal tableau the solver holds, at
	// constraint version lastVersion; nil unless the latest solve
	// succeeded. Holding the pointer keeps the address from being
	// reused by a different Problem.
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
	obj, err := s.phase2(p)
	if err != nil {
		return err
	}
	s.extract(sol, obj)
	s.last, s.lastVersion = p, p.version
	return nil
}

// ReoptimizeInto re-solves p after an objective-only change
// (SetObjective, SetObjectiveCoeff): phase 2 runs from the optimal
// vertex the previous solve of p left in the tableau, with no reload
// and no re-pivoting to a saved basis. That vertex stays primal
// feasible because the constraints are unchanged. When the last
// successful solve was of another problem, or p's constraints changed
// since (AddConstraint, Reset), or no solve has succeeded yet, it
// falls back to a cold two-phase solve, so the result is always p's
// optimum.
func (s *Solver) ReoptimizeInto(p *Problem, sol *Solution) error {
	if s.last != p || s.lastVersion != p.version {
		return s.SolveInto(p, sol)
	}
	s.last = nil
	s.solves++
	obj, err := s.phase2(p)
	if err != nil {
		return err
	}
	s.extract(sol, obj)
	s.last = p
	return nil
}

// Dual returns constraint i's shadow price at the optimum of the last
// successful solve: y_i = ∂objective/∂b_i, read off the final
// reduced-cost row, so Σ b_i·y_i equals the objective, y_i ≥ 0 on a
// ≤ row and y_i ≤ 0 on a ≥ row. A row with y_i ≠ 0 is tight at every
// optimum. Dual returns 0 for an out-of-range i or when the last solve
// failed.
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
// objective falls as x_j rises from 0, read off the final
// reduced-cost row. It is ≥ 0 at a maximum, and a variable whose
// reduced cost is positive is 0 at every optimum (complementary
// slackness). ReducedCost returns 0 for a basic variable, an
// out-of-range j, or when the last solve failed.
func (s *Solver) ReducedCost(j int) float64 {
	if s.last == nil || j < 0 || j >= s.n {
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

// load normalizes p into the tableau exactly as the seed's reference
// Solve (reference_test.go) does: every row an equality with RHS ≥ 0,
// LE rows gaining a slack, GE rows a surplus and an artificial, EQ
// rows an artificial. The slacks and artificials form the starting
// basis, so the only columns stored are the decision variables' and
// the surpluses'.
func (s *Solver) load(p *Problem) {
	m := len(p.constraints)
	n := p.n
	nSlack, nArt, nGE := 0, 0, 0
	for _, c := range p.constraints {
		switch normSense(c) {
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
	s.tab = growFloat(s.tab, m*stride)
	clear(s.tab)
	s.basis = growInt(s.basis, m)
	s.nonbasic = growInt(s.nonbasic, cols)
	s.nz = growInt(s.nz, cols)[:0]
	s.where = growInt(s.where, width)
	for v := range s.where {
		s.where[v] = -1
	}
	for j := 0; j < n; j++ {
		s.nonbasic[j], s.where[j] = j, j
	}
	s.ncons = m
	s.dualVar = growInt(s.dualVar, m)
	s.dualSign = growFloat(s.dualSign, m)
	slackAt, artAt, surplusAt := n, n+nSlack, n
	for i, c := range p.constraints {
		row := s.row(i)
		b := c.RHS
		sign := 1.0
		if b < 0 {
			b = -b
			sign = -1
			for j, v := range c.Coeffs {
				row[j] = -v
			}
		} else {
			copy(row, c.Coeffs)
		}
		row[cols] = b
		switch normSense(c) {
		case LE:
			s.basis[i] = slackAt
			s.dualVar[i], s.dualSign[i] = slackAt, sign
			slackAt++
		case GE:
			row[surplusAt] = -1
			s.nonbasic[surplusAt], s.where[slackAt] = slackAt, surplusAt
			surplusAt++
			s.dualVar[i], s.dualSign[i] = slackAt, -sign
			slackAt++
			s.basis[i] = artAt
			artAt++
		default:
			s.basis[i] = artAt
			s.dualVar[i], s.dualSign[i] = artAt, sign
			artAt++
		}
	}
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
	obj, err := s.simplex(s.width)
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
		s.pivot(i, col)
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
	s.m = w
	return nil
}

func (s *Solver) phase2(p *Problem) (float64, error) {
	s.cost = growFloat(s.cost, s.width)
	copy(s.cost, p.objective)
	for j := s.n; j < s.width; j++ {
		s.cost[j] = 0
	}
	// Artificial variables sit beyond the pricing limit, so they can
	// never re-enter the basis.
	return s.simplex(s.n + s.nSlack)
}

// simplex optimizes maximize costᵀx over the tableau in place,
// considering variables below enterLimit as entering candidates, and
// returns the optimal objective value.
func (s *Solver) simplex(enterLimit int) (float64, error) {
	cols := s.cols
	s.z = growFloat(s.z, s.stride)
	z := s.z
	nonbasic := s.nonbasic[:cols]
	for k, j := range nonbasic {
		z[k] = -s.cost[j]
	}
	z[cols] = 0
	if s.m == 0 {
		return 0, nil
	}
	for i := 0; i < s.m; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.row(i)
		for k := range z {
			z[k] += cb * row[k]
		}
	}
	tab, stride, basis := s.tab, s.stride, s.basis[:s.m]
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
			// Dantzig: most negative reduced cost.
			best := -tol
			for k, j := range nonbasic {
				if j < enterLimit && (z[k] < best || z[k] == best && enter >= 0 && j < ev) {
					best, enter, ev = z[k], k, j
				}
			}
		} else {
			// Bland: smallest variable with negative reduced cost.
			for k, j := range nonbasic {
				if j < ev && z[k] < -tol {
					enter, ev = k, j
				}
			}
		}
		if enter == -1 {
			return z[cols], nil
		}
		// Leaving row: minimum ratio; ties to the smallest basis index
		// (Bland), which with Bland pricing forbids cycling.
		leave := -1
		bestRatio := math.Inf(1)
		for i, b := range basis {
			a := tab[i*stride+enter]
			if a <= tol {
				continue
			}
			ratio := tab[i*stride+cols] / a
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave == -1 || b < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		prev := z[cols]
		s.pivot(leave, enter)
		if factor := z[enter]; factor != 0 {
			z[enter] = 0
			lrow := s.row(leave)
			for _, k := range s.nz {
				z[k] -= factor * lrow[k]
			}
			z[cols] -= factor * lrow[cols]
		}
		if z[cols] > prev+tol {
			stall = 0 // progress: back to Dantzig pricing
		} else {
			stall++
		}
	}
}

// pivot performs a Gauss-Jordan pivot on tableau entry (row, col): the
// variable in slot col enters the basis at row, and row's basic
// variable leaves into slot col. Before the update, slot col holds
// what the leaving variable's unit column holds in a full tableau — 1
// in the pivot row, 0 elsewhere — so the arithmetic on every stored
// entry is the full tableau's. The row updates run over the pivot
// row's nonzero slots only (recorded in s.nz for the caller's
// reduced-cost update) and the RHS: subtracting f·0 changes no value,
// at most the sign of a zero.
func (s *Solver) pivot(row, col int) {
	s.pivots++
	cols := s.cols
	pr := s.row(row)
	pv := pr[col]
	pr[col] = 1
	nz := s.nz[:0]
	for j, v := range pr[:cols] {
		if v != 0 {
			pr[j] = v / pv
			nz = append(nz, j)
		}
	}
	pr[cols] /= pv
	s.nz = nz
	rhs := pr[cols]
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
		r[cols] -= f * rhs
	}
	enter, leave := s.nonbasic[col], s.basis[row]
	s.basis[row], s.where[enter] = enter, -1
	s.nonbasic[col], s.where[leave] = leave, col
}

func (s *Solver) extract(sol *Solution, obj float64) {
	n := s.n
	if cap(sol.X) < n {
		sol.X = make([]float64, n)
	}
	sol.X = sol.X[:n]
	for j := range sol.X {
		sol.X[j] = 0
	}
	for i := 0; i < s.m; i++ {
		if b := s.basis[i]; b < n {
			sol.X[b] = s.tab[i*s.stride+s.cols]
		}
	}
	// Clamp tiny negatives produced by roundoff.
	for j, v := range sol.X {
		if v < 0 && v > -1e-7 {
			sol.X[j] = 0
		}
	}
	sol.Objective = obj
}

func growFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
