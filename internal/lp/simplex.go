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

	// version counts constraint mutations (AddConstraint, Reset); a
	// Solver re-optimizes in place only while it is unchanged since its
	// last successful solve of this Problem.
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

// SetObjectiveCoeff sets a single objective coefficient in place, for
// objective-only re-solves (see Solver.ReoptimizeInto).
func (p *Problem) SetObjectiveCoeff(j int, v float64) error {
	if j < 0 || j >= p.n {
		return fmt.Errorf("%w: variable %d of %d", ErrShape, j, p.n)
	}
	p.objective[j] = v
	return nil
}

// Solution is an optimal point of a Problem.
type Solution struct {
	X         []float64
	Objective float64
}
