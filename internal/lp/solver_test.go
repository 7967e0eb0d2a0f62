package lp

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// fig6Problem is the paper's Fig. 6 centralized LP: 5 variables, 5
// clique capacity rows, 5 basic-share floors. Optimum 53/24.
func fig6Problem(t testing.TB) *Problem {
	t.Helper()
	p := NewProblem(5)
	if err := p.SetObjective([]float64{1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{
		{3, 0, 0, 0, 0}, {2, 1, 0, 0, 0}, {0, 1, 1, 0, 0}, {0, 0, 1, 1, 0}, {0, 0, 0, 2, 1},
	}
	for _, r := range rows {
		if err := p.AddLE(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := p.LowerBound(i, 0.125); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestSolverFig6(t *testing.T) {
	sol, err := NewSolver().Solve(fig6Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-53.0/24) > 1e-6 {
		t.Errorf("objective = %g, want %g", sol.Objective, 53.0/24)
	}
}

// TestSolverRedundantEqualityRows is the compaction regression: many
// duplicated equality rows leave several artificials in the phase-1
// basis at once, all of which must be dropped (in one pass) rather
// than declared infeasible.
func TestSolverRedundantEqualityRows(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(3)
		if err := p.SetObjective([]float64{1, 2, 0}); err != nil {
			t.Fatal(err)
		}
		// x+y+z = 1 stated four times, x−y = 0 stated three times, and
		// their sum once more: six redundant equality rows in total.
		for i := 0; i < 4; i++ {
			if err := p.AddEQ([]float64{1, 1, 1}, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := p.AddEQ([]float64{1, -1, 0}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AddEQ([]float64{2, 0, 1}, 1); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Optimum: x = y, x+y+z = 1, maximize x+2y → x = y = 1/2, z = 0,
	// objective 3/2.
	for name, solve := range map[string]func(*Problem) (*Solution, error){
		"reference": Solve,
		"solver":    NewSolver().Solve,
	} {
		sol, err := solve(build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Objective-1.5) > 1e-6 {
			t.Errorf("%s: objective = %g, want 1.5", name, sol.Objective)
		}
		if math.Abs(sol.X[0]-0.5) > 1e-6 || math.Abs(sol.X[1]-0.5) > 1e-6 || math.Abs(sol.X[2]) > 1e-6 {
			t.Errorf("%s: x = %v, want [0.5 0.5 0]", name, sol.X)
		}
	}
}

// bealeProblem is Beale's classic example, which cycles under plain
// Dantzig pricing with naive tie-breaking. Optimum 1/20 at
// x = (1/25, 0, 1, 0).
func bealeProblem(t testing.TB) *Problem {
	t.Helper()
	p := NewProblem(4)
	if err := p.SetObjective([]float64{0.75, -150, 0.02, -6}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE([]float64{0.25, -60, -0.04, 9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE([]float64{0.5, -90, -0.02, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE([]float64{0, 0, 1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolverBealeCyclingLP solves the cycling-prone degenerate LP with
// default pricing (Dantzig + stall fallback) and with the fallback
// forced from the first pivot: both must terminate at 1/20.
func TestSolverBealeCyclingLP(t *testing.T) {
	for _, stall := range []int{defaultStallLimit, 0} {
		s := NewSolver()
		s.stallLimit = stall // 0 forces Bland's rule throughout
		sol, err := s.Solve(bealeProblem(t))
		if err != nil {
			t.Fatalf("stallLimit=%d: %v", stall, err)
		}
		if math.Abs(sol.Objective-0.05) > 1e-9 {
			t.Errorf("stallLimit=%d: objective = %g, want 0.05", stall, sol.Objective)
		}
		if math.Abs(sol.X[0]-0.04) > 1e-9 || math.Abs(sol.X[2]-1) > 1e-9 {
			t.Errorf("stallLimit=%d: x = %v, want [0.04 0 1 0]", stall, sol.X)
		}
	}
}

// TestSolverStalledDegeneratePrograms runs heavily degenerate programs
// (many redundant active constraints at the optimum) with a stall
// threshold of 1 so almost every degenerate pivot exercises the Bland
// path.
func TestSolverStalledDegeneratePrograms(t *testing.T) {
	s := NewSolver()
	s.stallLimit = 1
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := p.AddLE([]float64{float64(i), float64(i)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-9 {
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
}

func TestErrIterationLimit(t *testing.T) {
	s := NewSolver()
	s.maxIter = 1 // force the cap immediately
	_, err := s.Solve(fig6Problem(t))
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	if !strings.Contains(err.Error(), "iterations") {
		t.Errorf("error message carries no iteration count: %q", err)
	}
}

func TestWarmStartRHSMutation(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	sol, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Tighten two clique capacities and re-solve on the same solver: the
	// constraint change must make ReoptimizeInto fall back to a cold
	// solve that matches a fresh solver's.
	if err := p.SetRHS(1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRHS(4, 0.8); err != nil {
		t.Fatal(err)
	}
	var warm Solution
	if err := s.ReoptimizeInto(p, &warm); err != nil {
		t.Fatal(err)
	}
	cold, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm objective %g, cold %g", warm.Objective, cold.Objective)
	}
	if warm.Objective >= sol.Objective {
		t.Errorf("tightened program should lose throughput: %g -> %g", sol.Objective, warm.Objective)
	}
}

func TestWarmStartObjectiveMutation(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	var warm Solution
	// Sweep single-variable objectives e_i over the same constraints —
	// the refinement's per-variable probe pattern — re-optimizing each
	// probe from the previous probe's optimal tableau.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			v := 0.0
			if j == i {
				v = 1
			}
			if err := p.SetObjectiveCoeff(j, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.ReoptimizeInto(p, &warm); err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Errorf("target %d: warm max %g, reference %g", i, warm.Objective, cold.Objective)
		}
	}
}

// TestWarmStartCrossingZeroRHS flips a right-hand side across zero,
// which changes the row's normalized sense and the tableau layout; the
// re-solve on the same solver must reload into a correct solve.
func TestWarmStartCrossingZeroRHS(t *testing.T) {
	s := NewSolver()
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE([]float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE([]float64{-1, 0}, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(p); err != nil {
		t.Fatal(err)
	}
	if err := p.SetRHS(1, -0.25); err != nil { // now −x ≤ −1/4, i.e. x ≥ 1/4
		t.Fatal(err)
	}
	var warm Solution
	if err := s.ReoptimizeInto(p, &warm); err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-1) > 1e-9 {
		t.Errorf("objective = %g, want 1", warm.Objective)
	}
	if warm.X[0] < 0.25-1e-9 {
		t.Errorf("x = %v violates x0 ≥ 1/4", warm.X)
	}
}

// TestSolverInfeasibleAndUnbounded pins the error classification of
// the reusable solver on the simplex_test.go shapes.
func TestSolverInfeasibleAndUnbounded(t *testing.T) {
	s := NewSolver()
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1})
	_ = p.UpperBound(0, 1)
	_ = p.LowerBound(0, 2)
	if _, err := s.Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	q := NewProblem(2)
	_ = q.SetObjective([]float64{1, 0})
	_ = q.UpperBound(1, 5)
	if _, err := s.Solve(q); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
	// The solver must recover to solve cleanly after error returns.
	sol, err := s.Solve(fig6Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-53.0/24) > 1e-6 {
		t.Errorf("objective after errors = %g, want %g", sol.Objective, 53.0/24)
	}
}

// TestNoRows pins programs with no rows, or whose every row phase 1
// drops as redundant (0·x = 0): with a positive objective coefficient
// the objective grows without bound, and without one the optimum is
// the origin. The Solver and both oracles must agree.
func TestNoRows(t *testing.T) {
	cases := []struct {
		name string
		obj  []float64
		rows int // redundant 0·x = 0 rows
		want error
	}{
		{"no rows, positive", []float64{1, 1}, 0, ErrUnbounded},
		{"no rows, one positive", []float64{-1, 1}, 0, ErrUnbounded},
		{"no rows, non-positive", []float64{-1, 0}, 0, nil},
		{"redundant rows, positive", []float64{1, 1}, 2, ErrUnbounded},
		{"redundant rows, non-positive", []float64{0, -2}, 2, nil},
	}
	solvers := map[string]func(*Problem) (*Solution, error){
		"solver":    NewSolver().Solve,
		"reference": Solve,
		"full": func(p *Problem) (*Solution, error) {
			var sol Solution
			return &sol, newFullSolver().SolveInto(p, &sol)
		},
	}
	for _, c := range cases {
		p := NewProblem(len(c.obj))
		if err := p.SetObjective(c.obj); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.rows; i++ {
			if err := p.AddEQ(make([]float64, len(c.obj)), 0); err != nil {
				t.Fatal(err)
			}
		}
		for name, solve := range solvers {
			sol, err := solve(p)
			if !errors.Is(err, c.want) {
				t.Errorf("%s: %s: err = %v, want %v", c.name, name, err, c.want)
				continue
			}
			if err == nil && (sol.Objective != 0 || slices.ContainsFunc(sol.X, func(x float64) bool { return x != 0 })) {
				t.Errorf("%s: %s: x = %v, objective %g, want the origin", c.name, name, sol.X, sol.Objective)
			}
		}
	}
}

// TestSolverShapeChurn re-solves problems of very different shapes on
// one solver, verifying scratch regrowth and shrinkage are sound.
func TestSolverShapeChurn(t *testing.T) {
	s := NewSolver()
	var sol Solution
	big := NewProblem(20)
	obj := make([]float64, 20)
	for i := range obj {
		obj[i] = 1
	}
	_ = big.SetObjective(obj)
	for i := 0; i < 20; i++ {
		_ = big.UpperBound(i, float64(i+1))
	}
	small := NewProblem(1)
	_ = small.SetObjective([]float64{1})
	_ = small.UpperBound(0, 3)
	for round := 0; round < 4; round++ {
		if err := s.SolveInto(big, &sol); err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-210) > 1e-9 {
			t.Fatalf("round %d: big objective = %g, want 210", round, sol.Objective)
		}
		if err := s.SolveInto(small, &sol); err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-3) > 1e-9 {
			t.Fatalf("round %d: small objective = %g, want 3", round, sol.Objective)
		}
	}
}

// TestWarmResolveZeroAllocs pins the steady-state re-solve loop on a
// warm solver — mutate RHS, SolveInto — at zero allocations.
func TestWarmResolveZeroAllocs(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	tick := 0
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		rhs := 1.0
		if tick%2 == 0 {
			rhs = 0.95
		}
		if err := p.SetRHS(1, rhs); err != nil {
			t.Fatal(err)
		}
		if err := s.SolveInto(p, &sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-solve loop allocates %.1f/op, want 0", allocs)
	}
}
