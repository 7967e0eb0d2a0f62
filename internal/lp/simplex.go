// Package lp implements a dense two-phase primal simplex solver for
// linear programs of the form
//
//	maximize cᵀx  subject to  Ax ≤ b (and ≥ / = rows), x ≥ 0.
//
// The paper's optimal allocation strategies (Sec. III) are linear
// programs over maximal-clique capacity constraints and basic-share
// lower bounds; it notes "in most cases it is sufficient to solve the
// problem with the Simplex algorithm", which is what this package
// provides. Bland's rule guarantees termination on the degenerate
// programs that clique structures routinely produce.
package lp

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrInfeasible is returned when no point satisfies the constraints.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded is returned when the objective can grow without bound.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrShape is returned for malformed problems (mismatched lengths).
	ErrShape = errors.New("lp: malformed problem")
	// ErrIterationLimit is returned when the simplex fails to terminate
	// within its pivot budget; the wrapping error carries the iteration
	// count. Match it with errors.Is.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
)

// tol is the numerical tolerance for pivot and optimality tests.
const tol = 1e-9

// Sense classifies a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // Σ aᵢxᵢ ≤ b
	GE                  // Σ aᵢxᵢ ≥ b
	EQ                  // Σ aᵢxᵢ = b
)

// Constraint is one linear constraint row.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program over n non-negative variables.
type Problem struct {
	n           int
	objective   []float64
	constraints []Constraint

	// version counts constraint mutations (AddConstraint, SetRHS,
	// Reset); a Solver re-optimizes in place only while it is unchanged
	// since its last successful solve of this Problem.
	version uint64
}

// NewProblem creates a problem with numVars non-negative variables and
// a zero objective.
func NewProblem(numVars int) *Problem {
	return &Problem{n: numVars, objective: make([]float64, numVars)}
}

// Reset empties p into a program over numVars variables with a zero
// objective and no constraints, keeping its storage: a caller that
// rebuilds a program before every solve allocates only while the
// program outgrows each earlier one. A Solver treats the reset
// program as new (see Solver.ReoptimizeInto).
func (p *Problem) Reset(numVars int) {
	p.n = numVars
	p.objective = growFloat(p.objective, numVars)
	clear(p.objective)
	p.constraints = p.constraints[:0]
	p.version++
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the number of constraint rows.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the maximization objective coefficients.
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.n {
		return fmt.Errorf("%w: objective has %d coefficients, want %d", ErrShape, len(c), p.n)
	}
	copy(p.objective, c)
	return nil
}

// AddConstraint appends a constraint row.
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) error {
	if len(coeffs) != p.n {
		return fmt.Errorf("%w: constraint has %d coefficients, want %d", ErrShape, len(coeffs), p.n)
	}
	if sense != LE && sense != GE && sense != EQ {
		return fmt.Errorf("%w: bad sense %d", ErrShape, sense)
	}
	// Reuse the row storage a Reset left behind, if it fits.
	var row []float64
	if k := len(p.constraints); k < cap(p.constraints) {
		row = p.constraints[:k+1][k].Coeffs
	}
	row = growFloat(row, p.n)
	copy(row, coeffs)
	p.constraints = append(p.constraints, Constraint{Coeffs: row, Sense: sense, RHS: rhs})
	p.version++
	return nil
}

// AddLE appends Σ coeffsᵢ·xᵢ ≤ rhs.
func (p *Problem) AddLE(coeffs []float64, rhs float64) error {
	return p.AddConstraint(coeffs, LE, rhs)
}

// AddGE appends Σ coeffsᵢ·xᵢ ≥ rhs.
func (p *Problem) AddGE(coeffs []float64, rhs float64) error {
	return p.AddConstraint(coeffs, GE, rhs)
}

// AddEQ appends Σ coeffsᵢ·xᵢ = rhs.
func (p *Problem) AddEQ(coeffs []float64, rhs float64) error {
	return p.AddConstraint(coeffs, EQ, rhs)
}

// SetRHS replaces constraint i's right-hand side in place, letting a
// Problem be re-solved (typically warm-started via Solver.SolveFrom)
// without rebuilding or reallocating anything.
func (p *Problem) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.constraints) {
		return fmt.Errorf("%w: constraint %d of %d", ErrShape, i, len(p.constraints))
	}
	p.constraints[i].RHS = rhs
	p.version++
	return nil
}

// SetObjectiveCoeff sets a single objective coefficient in place; the
// companion to SetRHS for objective-only re-solves (see
// Solver.ReoptimizeInto).
func (p *Problem) SetObjectiveCoeff(j int, v float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("%w: variable %d of %d", ErrShape, j, p.n)
	}
	p.objective[j] = v
	return nil
}

// LowerBound appends x_i ≥ v.
func (p *Problem) LowerBound(i int, v float64) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: variable %d of %d", ErrShape, i, p.n)
	}
	row := make([]float64, p.n)
	row[i] = 1
	return p.AddGE(row, v)
}

// UpperBound appends x_i ≤ v.
func (p *Problem) UpperBound(i int, v float64) error {
	if i < 0 || i >= p.n {
		return fmt.Errorf("%w: variable %d of %d", ErrShape, i, p.n)
	}
	row := make([]float64, p.n)
	row[i] = 1
	return p.AddLE(row, v)
}

// Solution is an optimal point of a Problem.
type Solution struct {
	X         []float64
	Objective float64
}

// Solve runs the two-phase simplex method and returns an optimal
// solution, ErrInfeasible, or ErrUnbounded.
//
// This is the retained reference implementation: a fresh [][]float64
// tableau per call and Bland's rule throughout. The production path is
// the reusable Solver (solver.go), which is pinned against Solve by
// the randomized cross-checks in reference_test.go; prefer Solver in
// new code and keep this implementation boring.
func Solve(p *Problem) (*Solution, error) {
	m := len(p.constraints)
	n := p.n

	// Normalize every row to an equality with RHS ≥ 0.
	//   LE with b≥0: +slack (basic).
	//   GE with b≥0: -surplus, +artificial (basic).
	//   EQ with b≥0: +artificial (basic).
	// Rows with negative RHS are first multiplied by -1 (flipping the
	// sense), so the table below always applies.
	type rowKind int
	const (
		kindLE rowKind = iota + 1
		kindGE
		kindEQ
	)
	rows := make([][]float64, m)
	rhs := make([]float64, m)
	kinds := make([]rowKind, m)
	for i, c := range p.constraints {
		row := make([]float64, n)
		copy(row, c.Coeffs)
		b := c.RHS
		sense := c.Sense
		if b < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		rows[i] = row
		rhs[i] = b
		switch sense {
		case LE:
			kinds[i] = kindLE
		case GE:
			kinds[i] = kindGE
		default:
			kinds[i] = kindEQ
		}
	}

	numSlack := 0
	for _, k := range kinds {
		if k == kindLE || k == kindGE {
			numSlack++
		}
	}
	numArt := 0
	for _, k := range kinds {
		if k == kindGE || k == kindEQ {
			numArt++
		}
	}
	total := n + numSlack + numArt
	// Tableau: m rows of [coeffs... | rhs].
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackAt := n
	artAt := n + numSlack
	artCols := make([]int, 0, numArt)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], rows[i])
		tab[i][total] = rhs[i]
		switch kinds[i] {
		case kindLE:
			tab[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case kindGE:
			tab[i][slackAt] = -1
			slackAt++
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case kindEQ:
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
	}

	if numArt > 0 {
		// Phase 1: maximize -Σ artificials.
		cost := make([]float64, total)
		for _, c := range artCols {
			cost[c] = -1
		}
		obj, err := runSimplex(tab, basis, cost)
		if err != nil {
			// Phase 1 is bounded by construction; an unbounded report
			// indicates numerical trouble and is surfaced as such.
			return nil, fmt.Errorf("lp: phase 1: %w", err)
		}
		if obj < -1e-7 {
			return nil, ErrInfeasible
		}
		// Drive any artificial still in the basis (at value 0) out,
		// or drop its row if it is redundant.
		isArt := make(map[int]bool, len(artCols))
		for _, c := range artCols {
			isArt[c] = true
		}
		for i := 0; i < len(tab); i++ {
			if !isArt[basis[i]] {
				continue
			}
			basis[i] = -1 // redundant unless a structural pivot is found
			for j := 0; j < n+numSlack; j++ {
				if math.Abs(tab[i][j]) > tol {
					pivot(tab, i, j)
					basis[i] = j
					break
				}
			}
		}
		// Remove the marked redundant rows in one compaction pass
		// rather than deleting from the middle per row (O(m²)).
		w := 0
		for i := range tab {
			if basis[i] < 0 {
				continue
			}
			tab[w], basis[w] = tab[i], basis[i]
			w++
		}
		tab, basis = tab[:w], basis[:w]
		// Forbid artificials from re-entering by zeroing their columns.
		for _, r := range tab {
			for _, c := range artCols {
				r[c] = 0
			}
		}
	}

	// Phase 2: maximize the true objective.
	cost := make([]float64, total)
	copy(cost, p.objective)
	obj, err := runSimplex(tab, basis, cost)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][len(tab[i])-1]
		}
	}
	// Clamp tiny negatives produced by roundoff.
	for i := range x {
		if x[i] < 0 && x[i] > -1e-7 {
			x[i] = 0
		}
	}
	return &Solution{X: x, Objective: obj}, nil
}

// runSimplex optimizes maximize costᵀx over the tableau in place and
// returns the optimal objective value. basis[i] names the basic column
// of row i. Bland's rule is used throughout.
func runSimplex(tab [][]float64, basis []int, cost []float64) (float64, error) {
	m := len(tab)
	if m == 0 {
		return 0, nil
	}
	width := len(tab[0]) - 1

	// Reduced costs: z_j - c_j computed against the current basis. We
	// maintain an explicit cost row and eliminate basic columns.
	z := make([]float64, width+1)
	for j := 0; j <= width; j++ {
		if j < width {
			z[j] = -costAt(cost, j)
		}
	}
	for i, b := range basis {
		cb := costAt(cost, b)
		if cb == 0 {
			continue
		}
		for j := 0; j <= width; j++ {
			z[j] += cb * tab[i][j]
		}
	}

	for iter := 0; ; iter++ {
		if iter > 10000*(m+width+1) {
			return 0, fmt.Errorf("%w (%d iterations over %d rows × %d columns)", ErrIterationLimit, iter, m, width)
		}
		// Entering variable: Bland — smallest index with negative
		// reduced cost.
		enter := -1
		for j := 0; j < width; j++ {
			if z[j] < -tol {
				enter = j
				break
			}
		}
		if enter == -1 {
			return z[width], nil
		}
		// Leaving variable: minimum ratio; ties to smallest basis
		// index (Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][enter]
			if a <= tol {
				continue
			}
			ratio := tab[i][width] / a
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leave == -1 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			return 0, ErrUnbounded
		}
		pivot(tab, leave, enter)
		basis[leave] = enter
		// Update the cost row.
		factor := z[enter]
		if factor != 0 {
			for j := 0; j <= width; j++ {
				z[j] -= factor * tab[leave][j]
			}
		}
	}
}

func costAt(cost []float64, j int) float64 {
	if j < len(cost) {
		return cost[j]
	}
	return 0
}

// pivot performs a Gauss-Jordan pivot on tab[row][col].
func pivot(tab [][]float64, row, col int) {
	p := tab[row][col]
	for j := range tab[row] {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[row][j]
		}
		tab[i][col] = 0
	}
}
