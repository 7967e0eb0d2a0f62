package lp

import (
	"math"
	"math/rand"
	"testing"
)

// feasibleProblems draws n random bounded programs the reference Solve
// finds optimal, each paired with its reference solution.
func feasibleProblems(t *testing.T, seed int64, n int) ([]*Problem, []*Solution) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var probs []*Problem
	var refs []*Solution
	for len(probs) < n {
		p := randomProblem(rng, true)
		ref, err := Solve(p)
		if err != nil {
			continue
		}
		probs = append(probs, p)
		refs = append(refs, ref)
	}
	return probs, refs
}

// checkDuals asserts that the solver's duals certify sol as optimal
// for p: every y_i has its row sense's sign, bᵀy equals the objective,
// y_i is zero on every row with slack (complementary slackness), and
// Aᵀy ≥ c (dual feasibility over x ≥ 0).
func checkDuals(t *testing.T, trial int, s *Solver, p *Problem, sol *Solution) {
	t.Helper()
	const eps = 1e-9
	var by float64
	aty := make([]float64, p.n)
	for i, c := range p.constraints {
		y := s.Dual(i)
		switch c.Sense {
		case LE:
			if y < -eps {
				t.Fatalf("trial %d: row %d (≤): dual %g < 0", trial, i, y)
			}
		case GE:
			if y > eps {
				t.Fatalf("trial %d: row %d (≥): dual %g > 0", trial, i, y)
			}
		}
		var lhs float64
		for j, a := range c.Coeffs {
			lhs += a * sol.X[j]
			aty[j] += a * y
		}
		if slack := c.RHS - lhs; math.Abs(y*slack) > eps {
			t.Fatalf("trial %d: row %d: dual %g × slack %g breaks complementary slackness", trial, i, y, slack)
		}
		by += c.RHS * y
	}
	if math.Abs(by-sol.Objective) > eps {
		t.Fatalf("trial %d: bᵀy = %.12g, objective %.12g", trial, by, sol.Objective)
	}
	for j, v := range aty {
		if v < p.objective[j]-eps {
			t.Fatalf("trial %d: column %d: (Aᵀy)_j = %g < c_j = %g", trial, j, v, p.objective[j])
		}
	}
}

// TestDualsCertifyOptimum solves 200 random feasible LE/GE/EQ programs
// (negative right-hand sides included, so flipped rows are covered) on
// one reused solver and checks the duals against each optimum.
func TestDualsCertifyOptimum(t *testing.T) {
	probs, refs := feasibleProblems(t, 44, 200)
	s := NewSolver()
	var sol Solution
	for trial, p := range probs {
		if err := s.SolveInto(p, &sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(sol.Objective-refs[trial].Objective) > 1e-9 {
			t.Fatalf("trial %d: objective %g, reference %g", trial, sol.Objective, refs[trial].Objective)
		}
		checkDuals(t, trial, s, p, &sol)
	}
}

// TestReoptimizeMatchesCold swaps the objective of each of 200 random
// feasible programs three times and re-optimizes in place: every
// result must match a cold solve of the same program, and its duals
// must certify it.
func TestReoptimizeMatchesCold(t *testing.T) {
	probs, _ := feasibleProblems(t, 45, 200)
	rng := rand.New(rand.NewSource(46))
	s := NewSolver()
	var sol Solution
	for trial, p := range probs {
		if err := s.SolveInto(p, &sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for swap := 0; swap < 3; swap++ {
			for j := range p.objective {
				if err := p.SetObjectiveCoeff(j, rng.Float64()*4-1); err != nil {
					t.Fatal(err)
				}
			}
			cold, coldErr := NewSolver().Solve(p)
			err := s.ReoptimizeInto(p, &sol)
			if kind, want := classify(t, err), classify(t, coldErr); kind != want {
				t.Fatalf("trial %d swap %d: re-optimize %s, cold %s", trial, swap, kind, want)
			}
			if err != nil {
				// An unbounded objective leaves no tableau to reuse; the
				// next swap must re-solve cold.
				continue
			}
			if math.Abs(sol.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("trial %d swap %d: re-optimized objective %g, cold %g", trial, swap, sol.Objective, cold.Objective)
			}
			checkDuals(t, trial, s, p, &sol)
		}
	}
}

// TestReoptimizeReusesTableau: re-optimizing an unchanged objective
// starts at the optimum already in the tableau, so it takes no pivots.
func TestReoptimizeReusesTableau(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	solves, pivots := s.Work()
	if err := s.ReoptimizeInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	gotSolves, gotPivots := s.Work()
	if gotSolves != solves+1 || gotPivots != pivots {
		t.Errorf("re-optimize took %d solves and %d pivots, want 1 and 0", gotSolves-solves, gotPivots-pivots)
	}
	if math.Abs(sol.Objective-53.0/24) > 1e-9 {
		t.Errorf("objective = %g, want %g", sol.Objective, 53.0/24)
	}
}

// TestReoptimizeFallsBack covers every case where the retained tableau
// is not p's: no solve yet, a changed constraint set or right-hand
// side, a Reset and rebuilt program, another problem solved in
// between, and a failed last solve.
// Each must return p's true optimum, not the stale vertex's.
func TestReoptimizeFallsBack(t *testing.T) {
	const fig6Opt = 53.0 / 24
	check := func(name string, s *Solver, p *Problem, want float64) {
		t.Helper()
		var sol Solution
		if err := s.ReoptimizeInto(p, &sol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Objective-want) > 1e-9 {
			t.Errorf("%s: objective %g, want %g", name, sol.Objective, want)
		}
	}
	check("no prior solve", NewSolver(), fig6Problem(t), fig6Opt)

	solved := func() (*Solver, *Problem) {
		s := NewSolver()
		p := fig6Problem(t)
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
		return s, p
	}
	// cold is p's optimum, which must differ from the stale Fig. 6
	// vertex's for the case to tell a fallback from a stale re-solve.
	cold := func(p *Problem) float64 {
		sol, err := NewSolver().Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sol.Objective-fig6Opt) < 1e-6 {
			t.Fatalf("mutated program keeps the Fig. 6 optimum %g", sol.Objective)
		}
		return sol.Objective
	}

	s, p := solved()
	if err := p.AddLE([]float64{1, 1, 1, 1, 1}, 1.5); err != nil {
		t.Fatal(err)
	}
	check("after AddConstraint", s, p, cold(p))

	s, p = solved()
	if err := p.SetRHS(4, 0.8); err != nil {
		t.Fatal(err)
	}
	check("after SetRHS", s, p, cold(p))

	// Reset and rebuild the same Problem as Beale's program: the
	// pointer matches the last solve, the constraints do not.
	s, p = solved()
	p.Reset(4)
	q := bealeProblem(t)
	if err := p.SetObjective(q.objective); err != nil {
		t.Fatal(err)
	}
	for _, c := range q.constraints {
		if err := p.AddConstraint(c.Coeffs, c.Sense, c.RHS); err != nil {
			t.Fatal(err)
		}
	}
	check("after Reset", s, p, 0.05)

	s, p = solved()
	if _, err := s.Solve(bealeProblem(t)); err != nil {
		t.Fatal(err)
	}
	check("after another problem", s, p, fig6Opt)

	s, p = solved()
	bad := NewProblem(1)
	if err := bad.UpperBound(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := bad.LowerBound(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(bad); err == nil {
		t.Fatal("infeasible program solved")
	}
	if y := s.Dual(0); y != 0 {
		t.Errorf("dual after failed solve = %g, want 0", y)
	}
	check("after a failed solve", s, p, fig6Opt)
}

// TestReoptimizeZeroAllocs pins the steady-state objective-swap loop —
// SetObjectiveCoeff, ReoptimizeInto, Dual — at zero allocations.
func TestReoptimizeZeroAllocs(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	target := 0
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		for j := 0; j < 5; j++ {
			v := 0.0
			if j == target {
				v = 1
			}
			if err := p.SetObjectiveCoeff(j, v); err != nil {
				t.Fatal(err)
			}
		}
		target = (target + 1) % 5
		if err := s.ReoptimizeInto(p, &sol); err != nil {
			t.Fatal(err)
		}
		sink += s.Dual(0)
	})
	if allocs != 0 {
		t.Errorf("re-optimize loop allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}
