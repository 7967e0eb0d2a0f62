package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The warm path — SetBounds, SetRHS and AddColumn edits repaired by the
// dual simplex, objective edits by the primal simplex — is checked
// against a cold solve of the same edited program.

// warmEdit applies one random edit to p through s: new bounds on a
// decision variable, a new right-hand side (vacuous now and then), a
// multiple of one column added to another, or a new objective
// coefficient. Most bounds keep the
// hidden point x0 feasible and most right-hand sides hold at it, so
// chains stay feasible long enough to exercise the warm path; the
// rest make room for infeasible and unbounded programs. draw supplies
// the numbers, so the same code serves the seeded test and the fuzzer.
func warmEdit(s *Solver, p *Problem, x0 []float64, draw func(int) int) error {
	grid := []float64{0, 1, -1, 2, 0.5, -2, 3, 0, -0.5, 1, 0.25, 4}
	val := func() float64 { return grid[draw(len(grid))] }
	inf := math.Inf(1)
	switch draw(4) {
	case 0:
		j := draw(p.n)
		lo, hi := x0[j]-float64(draw(3)), x0[j]+float64(draw(3))
		switch draw(6) {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = inf
		case 2:
			lo, hi = val(), inf
		case 3:
			lo, hi = 0, inf
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return s.SetBounds(p, j, lo, hi)
	case 1:
		if len(p.constraints) == 0 {
			return nil
		}
		i := draw(len(p.constraints))
		c := p.constraints[i]
		rhs := 0.0
		for j, a := range c.Coeffs {
			rhs += a * x0[j]
		}
		switch c.Sense {
		case LE:
			rhs += float64(draw(3))
		case GE:
			rhs -= float64(draw(3))
		}
		switch draw(6) {
		case 0:
			rhs = val()
		case 1:
			switch c.Sense {
			case LE:
				rhs = inf
			case GE:
				rhs = -inf
			}
		}
		return s.SetRHS(p, i, rhs)
	case 2:
		if p.n < 2 {
			return nil
		}
		j := draw(p.n)
		return s.AddColumn(p, j, (j+1+draw(p.n-1))%p.n, val())
	default:
		return p.SetObjectiveCoeff(draw(p.n), val())
	}
}

// warmProgram draws a program over a coarse grid, so zeros, ties and
// degenerate vertices are common: a mix of senses, most rows tight or
// nearly tight at a hidden grid point x0, which it returns, and on
// some variables bounds around x0 other than [0, +Inf).
func warmProgram(draw func(int) int) (*Problem, []float64) {
	grid := []float64{0, 1, -1, 2, 0.5, -2, 3, 0, -0.5, 1, 0.25, 4}
	val := func() float64 { return grid[draw(len(grid))] }
	n := 1 + draw(6)
	m := 1 + draw(8)
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.objective[j] = val()
		x0[j] = math.Abs(val())
		if draw(3) == 0 {
			if err := p.SetBounds(j, x0[j]-float64(draw(3)), x0[j]+float64(draw(3))); err != nil {
				panic(err)
			}
		}
	}
	row := make([]float64, n)
	for k := 0; k < m; k++ {
		at := 0.0
		for j := range row {
			row[j] = val()
			at += row[j] * x0[j]
		}
		sense := []Sense{LE, LE, LE, GE, GE, EQ}[draw(6)]
		switch sense {
		case LE:
			at += float64(draw(3))
		case GE:
			at -= float64(draw(3))
		}
		if err := p.AddConstraint(row, sense, at); err != nil {
			panic(err)
		}
	}
	return p, x0
}

// checkWarm compares one warm re-solve with a cold solve of the same
// program: the same status, objectives within 1e-9·max(1, |obj|), and
// a warm point within 1e-9 of every bound and row.
func checkWarm(t *testing.T, what string, p *Problem, warm *Solution, err error) {
	t.Helper()
	cold, coldErr := NewSolver().Solve(p)
	if classify(t, err) != classify(t, coldErr) {
		t.Fatalf("%s: warm %v, cold %v", what, err, coldErr)
	}
	if err != nil {
		return
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
		t.Fatalf("%s: warm objective %.17g, cold %.17g", what, warm.Objective, cold.Objective)
	}
	const feasTol = 1e-9
	for j, x := range warm.X {
		if x < p.lo[j]-feasTol || x > p.hi[j]+feasTol {
			t.Fatalf("%s: x[%d] = %g outside [%g, %g]", what, j, x, p.lo[j], p.hi[j])
		}
	}
	for i, c := range p.constraints {
		if math.IsInf(c.RHS, 0) {
			continue
		}
		var lhs float64
		for j, a := range c.Coeffs {
			lhs += a * warm.X[j]
		}
		if c.Sense != GE && lhs > c.RHS+feasTol || c.Sense != LE && lhs < c.RHS-feasTol {
			t.Fatalf("%s: row %d: activity %.17g, sense %d, RHS %g", what, i, lhs, c.Sense, c.RHS)
		}
	}
}

// warmChain solves p cold on s, then applies links batches of one to
// three random edits, re-solving after each and checking the result
// against a cold solve. It returns how many re-solves followed a
// successful one, how many of those still held the tableau when they
// started (the edits could all take it), and how many of the latter
// fell back to a cold solve.
func warmChain(t *testing.T, what string, p *Problem, x0 []float64, s *Solver, draw func(int) int, links int) (after, held, fallbacks int) {
	t.Helper()
	var sol Solution
	err := s.SolveInto(p, &sol)
	checkWarm(t, what, p, &sol, err)
	for link := 0; link < links; link++ {
		if err == nil {
			after++
		}
		for e := 1 + draw(3); e > 0; e-- {
			if err := warmEdit(s, p, x0, draw); err != nil {
				t.Fatal(err)
			}
		}
		warm := s.holds(p)
		_, before, _ := s.Work()
		err = s.ReoptimizeInto(p, &sol)
		if warm {
			held++
			if _, cold, _ := s.Work(); cold > before {
				fallbacks++
			}
		}
		checkWarm(t, fmt.Sprintf("%s link %d", what, link), p, &sol, err)
	}
	return after, held, fallbacks
}

// TestWarmMatchesCold runs 3000 programs through chains of eight
// edit batches each. A re-solve after a failed one has no tableau and
// solves cold, and so does one after an edit the tableau cannot take:
// a RHS edit on a row phase 1 dropped, or a column edit of a basic
// variable no other column can replace. Every other re-solve
// must run warm, and they must be most of them.
func TestWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	draw := rng.Intn
	after, held, fallbacks := 0, 0, 0
	outcomes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		p, x0 := warmProgram(draw)
		a, h, f := warmChain(t, fmt.Sprintf("trial %d", trial), p, x0, NewSolver(), draw, 8)
		after += a
		held += h
		fallbacks += f
		_, err := NewSolver().Solve(p)
		outcomes[classify(t, err)]++
	}
	t.Logf("of %d re-solves after a successful one, %d held the tableau and %d of those fell back to a cold solve; final programs: %v", after, held, fallbacks, outcomes)
	if fallbacks > 0 || held*10 < after*9 {
		t.Errorf("%d of %d re-solves held the tableau, %d fell back to a cold solve", held, after, fallbacks)
	}
	for _, kind := range []string{"optimal", "infeasible", "unbounded"} {
		if outcomes[kind] < 100 {
			t.Errorf("only %d of 3000 edited programs end %s; retune warmProgram (%v)", outcomes[kind], kind, outcomes)
		}
	}
}

// FuzzWarmMatchesCold checks the warm-versus-cold property on programs
// and edit chains decoded from the fuzzer's bytes.
func FuzzWarmMatchesCold(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		data := make([]byte, 16+rng.Intn(96))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		p, x0 := warmProgram(draw)
		warmChain(t, "fuzz", p, x0, NewSolver(), draw, 6)
	})
}

// TestWarmEditsDefaultPath: edits that leave a program unchanged in
// value — a bound or RHS set to what it was — keep the re-solve warm
// and pivot-free.
func TestWarmEditsDefaultPath(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	want := sol.Objective
	if err := s.SetRHS(p, 1, p.constraints[1].RHS); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBounds(p, 0, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	solves, cold, pivots := s.Work()
	if err := s.ReoptimizeInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	gotSolves, gotCold, gotPivots := s.Work()
	if gotSolves != solves+1 || gotCold != cold || gotPivots != pivots {
		t.Errorf("re-solve took %d solves, %d cold and %d pivots, want 1, 0 and 0", gotSolves-solves, gotCold-cold, gotPivots-pivots)
	}
	if sol.Objective != want {
		t.Errorf("objective %v, want %v", sol.Objective, want)
	}
}

// TestWarmBoundsRepair tightens and relaxes bounds and right-hand
// sides of the Fig. 6 program on one solver and checks every re-solve
// against a cold one, all without a cold fallback.
func TestWarmBoundsRepair(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	edits := []func() error{
		func() error { return s.SetBounds(p, 2, 0.1, 0.3) },
		func() error { return s.SetRHS(p, 0, 0.7) },
		func() error { return s.SetBounds(p, 0, 0.2, 0.2) },
		func() error { return s.SetBounds(p, 2, 0, math.Inf(1)) },
		func() error { return s.SetRHS(p, 0, 1) },
		func() error { return s.SetBounds(p, 0, math.Inf(-1), math.Inf(1)) },
	}
	_, cold, _ := s.Work()
	for k, edit := range edits {
		if err := edit(); err != nil {
			t.Fatal(err)
		}
		err := s.ReoptimizeInto(p, &sol)
		checkWarm(t, fmt.Sprintf("edit %d", k), p, &sol, err)
	}
	if _, after, _ := s.Work(); after != cold {
		t.Errorf("%d cold fallbacks, want 0", after-cold)
	}
}

// TestWarmInfeasibleEdit: bounds no point meets are reported as
// ErrInfeasible by the warm path, and relaxing them solves again.
func TestWarmInfeasibleEdit(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBounds(p, 0, 2, 2); err != nil { // every clique holds x0 ≤ 1
		t.Fatal(err)
	}
	if err := s.ReoptimizeInto(p, &sol); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if err := s.SetBounds(p, 0, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReoptimizeInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-53.0/24) > 1e-9 {
		t.Errorf("objective %g, want %g", sol.Objective, 53.0/24)
	}
}

// TestWarmEditZeroAllocs pins the steady-state edit-and-repair loop at
// zero allocations.
func TestWarmEditZeroAllocs(t *testing.T) {
	s := NewSolver()
	p := fig6Problem(t)
	var sol Solution
	if err := s.SolveInto(p, &sol); err != nil {
		t.Fatal(err)
	}
	tick := 0
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		lo := 0.05 * float64(tick%3)
		if err := s.SetBounds(p, 1, lo, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.SetRHS(p, 2, 1-lo); err != nil {
			t.Fatal(err)
		}
		f := 0.5
		if tick%2 == 0 {
			f = -0.5
		}
		if err := s.AddColumn(p, 3, 4, f); err != nil {
			t.Fatal(err)
		}
		if err := s.ReoptimizeInto(p, &sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("edit-and-repair loop allocates %.1f/op, want 0", allocs)
	}
}
