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
// Pricing is Dantzig's rule (most negative reduced cost), which on the
// clique-capacity programs of phase 1 reaches the optimum in far fewer
// pivots than Bland's rule. Degenerate programs can cycle under
// Dantzig, so after stallLimit consecutive pivots without objective
// improvement the solver falls back to Bland's rule — restoring the
// termination guarantee — and returns to Dantzig on the next strict
// improvement.
//
// After a successful solve the Solver retains the optimal tableau, so
// Dual reads the constraints' shadow prices off it and ReoptimizeInto
// re-prices it in place after an objective-only change.
//
// A Solver is not safe for concurrent use; give each goroutine its
// own.
type Solver struct {
	// Flat tableau: m rows × stride columns, row-major. Columns
	// 0..n-1 hold decision variables, n..n+nSlack-1 slack/surplus
	// columns, n+nSlack..width-1 artificials; column width is the RHS.
	tab    []float64
	stride int
	m      int
	n      int
	width  int
	nSlack int
	nArt   int

	basis []int
	z     []float64 // reduced-cost row, len stride
	cost  []float64 // dense cost vector, len width

	// dualCol[i] is the column whose final reduced cost prices
	// constraint i — its slack, surplus or artificial — and
	// dualSign[i] maps that reduced cost to ∂objective/∂b_i, undoing
	// the surplus column's −1 and the negative-RHS row flip. Phase 1
	// compacts rows but never moves columns, so the map stays valid.
	dualCol  []int
	dualSign []float64
	ncons    int // constraint count of the loaded problem

	// last is the problem whose optimal tableau the solver holds, at
	// constraint version lastVersion; nil unless the latest solve
	// succeeded. Holding the pointer keeps the address from being
	// reused by a different Problem.
	last        *Problem
	lastVersion uint64

	solves, pivots int // cumulative work, see Work

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
// since (AddConstraint, SetRHS, Reset), or no solve has succeeded yet, it
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
	return s.dualSign[i] * s.z[s.dualCol[i]]
}

// Work reports the solver's cumulative effort since NewSolver: LP
// solves of every kind (cold and re-optimized) and tableau pivots.
func (s *Solver) Work() (solves, pivots int) { return s.solves, s.pivots }

func (s *Solver) row(i int) []float64 { return s.tab[i*s.stride : (i+1)*s.stride] }

// load normalizes p into the flat tableau exactly as the seed's
// reference Solve (reference_test.go) does: every row an equality with RHS ≥ 0, LE rows gaining a
// slack, GE rows a surplus and an artificial, EQ rows an artificial.
func (s *Solver) load(p *Problem) {
	m := len(p.constraints)
	n := p.n
	nSlack, nArt := 0, 0
	for _, c := range p.constraints {
		switch normSense(c) {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		default:
			nArt++
		}
	}
	width := n + nSlack + nArt
	stride := width + 1
	s.m, s.n, s.width, s.stride, s.nSlack, s.nArt = m, n, width, stride, nSlack, nArt
	s.tab = growFloat(s.tab, m*stride)
	for i := range s.tab {
		s.tab[i] = 0
	}
	s.basis = growInt(s.basis, m)
	s.ncons = m
	s.dualCol = growInt(s.dualCol, m)
	s.dualSign = growFloat(s.dualSign, m)
	slackAt, artAt := n, n+nSlack
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
		row[width] = b
		switch normSense(c) {
		case LE:
			row[slackAt] = 1
			s.basis[i] = slackAt
			s.dualCol[i], s.dualSign[i] = slackAt, sign
			slackAt++
		case GE:
			row[slackAt] = -1
			s.dualCol[i], s.dualSign[i] = slackAt, -sign
			slackAt++
			row[artAt] = 1
			s.basis[i] = artAt
			artAt++
		default:
			row[artAt] = 1
			s.basis[i] = artAt
			s.dualCol[i], s.dualSign[i] = artAt, sign
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
	// Drive any artificial still in the basis (at value 0) out; a row
	// whose artificial cannot be exchanged for a structural column is
	// redundant and is marked (basis -1) for removal.
	for i := 0; i < s.m; i++ {
		if s.basis[i] < artStart {
			continue
		}
		row := s.row(i)
		s.basis[i] = -1
		for j := 0; j < artStart; j++ {
			if math.Abs(row[j]) > tol {
				s.pivot(i, j)
				s.basis[i] = j
				break
			}
		}
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
	// Artificial columns sit beyond the pricing limit, so they can
	// never re-enter the basis.
	return s.simplex(s.n + s.nSlack)
}

// simplex optimizes maximize costᵀx over the tableau in place,
// considering columns below enterLimit as entering candidates, and
// returns the optimal objective value.
func (s *Solver) simplex(enterLimit int) (float64, error) {
	width := s.width
	s.z = growFloat(s.z, s.stride)
	z := s.z
	for j := 0; j < width; j++ {
		z[j] = -s.cost[j]
	}
	z[width] = 0
	if s.m == 0 {
		return 0, nil
	}
	for i := 0; i < s.m; i++ {
		cb := s.cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.row(i)
		for j := 0; j <= width; j++ {
			z[j] += cb * row[j]
		}
	}
	limit := s.maxIter
	if limit <= 0 {
		limit = 10000 * (s.m + width + 1)
	}
	stall := 0
	for iter := 0; ; iter++ {
		if iter > limit {
			return 0, fmt.Errorf("%w (%d iterations over %d rows × %d columns)", ErrIterationLimit, iter, s.m, width)
		}
		enter := -1
		if stall < s.stallLimit {
			// Dantzig: most negative reduced cost.
			best := -tol
			for j := 0; j < enterLimit; j++ {
				if z[j] < best {
					best = z[j]
					enter = j
				}
			}
		} else {
			// Bland: smallest index with negative reduced cost.
			for j := 0; j < enterLimit; j++ {
				if z[j] < -tol {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return z[width], nil
		}
		// Leaving row: minimum ratio; ties to the smallest basis index
		// (Bland), which with Bland pricing forbids cycling.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < s.m; i++ {
			a := s.tab[i*s.stride+enter]
			if a <= tol {
				continue
			}
			ratio := s.tab[i*s.stride+width] / a
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave == -1 || s.basis[i] < s.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		prev := z[width]
		s.pivot(leave, enter)
		s.basis[leave] = enter
		if factor := z[enter]; factor != 0 {
			lrow := s.row(leave)
			for j := 0; j <= width; j++ {
				z[j] -= factor * lrow[j]
			}
		}
		if z[width] > prev+tol {
			stall = 0 // progress: back to Dantzig pricing
		} else {
			stall++
		}
	}
}

// pivot performs a Gauss-Jordan pivot on tableau entry (row, col).
func (s *Solver) pivot(row, col int) {
	s.pivots++
	pr := s.row(row)
	pv := pr[col]
	for j := range pr {
		pr[j] /= pv
	}
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		r := s.row(i)
		f := r[col]
		if f == 0 {
			continue
		}
		for j := range r {
			r[j] -= f * pr[j]
		}
		r[col] = 0
	}
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
			sol.X[b] = s.tab[i*s.stride+s.width]
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
