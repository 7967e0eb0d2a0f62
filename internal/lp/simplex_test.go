package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

const tolT = 1e-6

// LowerBound appends x_i ≥ v: a test shorthand for a one-variable row.
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

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSimpleMax(t *testing.T) {
	// max x+y s.t. x ≤ 2, y ≤ 3 → 5 at (2,3).
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpperBound(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.UpperBound(1, 3); err != nil {
		t.Fatal(err)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-5) > tolT {
		t.Errorf("objective = %g, want 5", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > tolT || math.Abs(sol.X[1]-3) > tolT {
		t.Errorf("x = %v", sol.X)
	}
}

func TestClassicLP(t *testing.T) {
	// max 3x+5y s.t. x ≤ 4, 2y ≤ 12, 3x+2y ≤ 18 → 36 at (2,6).
	p := NewProblem(2)
	_ = p.SetObjective([]float64{3, 5})
	_ = p.AddLE([]float64{1, 0}, 4)
	_ = p.AddLE([]float64{0, 2}, 12)
	_ = p.AddLE([]float64{3, 2}, 18)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-36) > tolT {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > tolT || math.Abs(sol.X[1]-6) > tolT {
		t.Errorf("x = %v", sol.X)
	}
}

func TestLowerBounds(t *testing.T) {
	// max x+y s.t. x+2y ≤ 1, x ≥ 1/4, y ≥ 1/4 (the paper's Fig. 1 LP
	// restricted to its second clique) → x = 1/2, y = 1/4.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1})
	_ = p.AddLE([]float64{1, 2}, 1)
	_ = p.LowerBound(0, 0.25)
	_ = p.LowerBound(1, 0.25)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-0.75) > tolT {
		t.Errorf("objective = %g, want 0.75", sol.Objective)
	}
	if math.Abs(sol.X[0]-0.5) > tolT || math.Abs(sol.X[1]-0.25) > tolT {
		t.Errorf("x = %v", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// max x s.t. x + y = 1, x ≤ 0.6 → x = 0.6, y = 0.4.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 0})
	_ = p.AddEQ([]float64{1, 1}, 1)
	_ = p.UpperBound(0, 0.6)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-0.6) > tolT || math.Abs(sol.X[1]-0.4) > tolT {
		t.Errorf("x = %v", sol.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// max -x s.t. -x ≤ -2 (i.e. x ≥ 2) → x = 2.
	p := NewProblem(1)
	_ = p.SetObjective([]float64{-1})
	_ = p.AddLE([]float64{-1}, -2)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-2) > tolT {
		t.Errorf("x = %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1})
	_ = p.UpperBound(0, 1)
	_ = p.LowerBound(0, 2)
	if _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 0})
	_ = p.UpperBound(1, 5)
	if _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestDegenerate(t *testing.T) {
	// Redundant constraints meeting at one vertex; Bland's rule must
	// terminate.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1})
	_ = p.AddLE([]float64{1, 1}, 1)
	_ = p.AddLE([]float64{2, 2}, 2)
	_ = p.AddLE([]float64{1, 0}, 1)
	_ = p.AddLE([]float64{0, 1}, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-1) > tolT {
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// x + y = 1 stated twice: the duplicate row must be dropped, not
	// declared infeasible.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 2})
	_ = p.AddEQ([]float64{1, 1}, 1)
	_ = p.AddEQ([]float64{1, 1}, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > tolT {
		t.Errorf("objective = %g, want 2", sol.Objective)
	}
}

func TestShapeErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short objective: %v", err)
	}
	if err := p.AddLE([]float64{1}, 0); !errors.Is(err, ErrShape) {
		t.Errorf("short row: %v", err)
	}
	if err := p.LowerBound(5, 0); !errors.Is(err, ErrShape) {
		t.Errorf("bad index: %v", err)
	}
	if err := p.UpperBound(-1, 0); !errors.Is(err, ErrShape) {
		t.Errorf("bad index: %v", err)
	}
	if err := p.AddConstraint([]float64{1, 1}, Sense(9), 0); !errors.Is(err, ErrShape) {
		t.Errorf("bad sense: %v", err)
	}
}

func TestFig6LPObjective(t *testing.T) {
	// The paper's Fig. 6 centralized LP; multiple optima exist but the
	// optimal value is 53/24.
	p := NewProblem(5)
	_ = p.SetObjective([]float64{1, 1, 1, 1, 1})
	_ = p.AddLE([]float64{3, 0, 0, 0, 0}, 1)
	_ = p.AddLE([]float64{2, 1, 0, 0, 0}, 1)
	_ = p.AddLE([]float64{0, 1, 1, 0, 0}, 1)
	_ = p.AddLE([]float64{0, 0, 1, 1, 0}, 1)
	_ = p.AddLE([]float64{0, 0, 0, 2, 1}, 1)
	for i := 0; i < 5; i++ {
		_ = p.LowerBound(i, 0.125)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-53.0/24) > tolT {
		t.Errorf("objective = %g, want %g", sol.Objective, 53.0/24)
	}
}

// TestRandomAgainstVertexEnumeration cross-checks the simplex on small
// random LPs against brute-force enumeration of basic feasible points.
func TestRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(2) // 2..3 vars
		m := 2 + rng.Intn(3) // 2..4 constraints
		p := NewProblem(n)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = rng.Float64()
		}
		_ = p.SetObjective(obj)
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for k := 0; k < m; k++ {
			rows[k] = make([]float64, n)
			for i := range rows[k] {
				rows[k][i] = rng.Float64()
			}
			rhs[k] = 0.5 + rng.Float64()
			_ = p.AddLE(rows[k], rhs[k])
		}
		// Box to keep the feasible region bounded.
		for i := 0; i < n; i++ {
			_ = p.UpperBound(i, 2)
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best := enumerateVertices(obj, rows, rhs, 2)
		if math.Abs(sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: simplex %g, vertex enumeration %g", trial, sol.Objective, best)
		}
		// Solution must be feasible.
		for k := range rows {
			var lhs float64
			for i := range rows[k] {
				lhs += rows[k][i] * sol.X[i]
			}
			if lhs > rhs[k]+1e-6 {
				t.Fatalf("trial %d: constraint %d violated: %g > %g", trial, k, lhs, rhs[k])
			}
		}
	}
}

// enumerateVertices computes the exact LP optimum for a bounded
// problem by enumerating vertices: every vertex is the intersection of
// n active constraints chosen from the rows, the bounds x_i ≥ 0 and
// x_i ≤ ub.
func enumerateVertices(obj []float64, rows [][]float64, rhs []float64, ub float64) float64 {
	n := len(obj)
	// Assemble all constraints as a·x = b candidates.
	var allRows [][]float64
	var allRHS []float64
	for k := range rows {
		allRows = append(allRows, rows[k])
		allRHS = append(allRHS, rhs[k])
	}
	for i := 0; i < n; i++ {
		lo := make([]float64, n)
		lo[i] = 1
		allRows = append(allRows, lo)
		allRHS = append(allRHS, 0) // x_i = 0
		hi := make([]float64, n)
		hi[i] = 1
		allRows = append(allRows, hi)
		allRHS = append(allRHS, ub) // x_i = ub
	}
	m := len(allRows)
	best := math.Inf(-1)
	idx := make([]int, n)
	var choose func(start, k int)
	feasible := func(x []float64) bool {
		for i := range x {
			if x[i] < -1e-9 || x[i] > ub+1e-9 {
				return false
			}
		}
		for k := range rows {
			var lhs float64
			for j := range x {
				lhs += rows[k][j] * x[j]
			}
			if lhs > rhs[k]+1e-9 {
				return false
			}
		}
		return true
	}
	choose = func(start, k int) {
		if k == n {
			x, ok := solveSquare(allRows, allRHS, idx)
			if ok && feasible(x) {
				var v float64
				for j := range x {
					v += obj[j] * x[j]
				}
				if v > best {
					best = v
				}
			}
			return
		}
		for i := start; i < m; i++ {
			idx[k] = i
			choose(i+1, k+1)
		}
	}
	choose(0, 0)
	return best
}

// solveSquare solves the n×n system formed by the selected rows via
// Gaussian elimination; ok is false for singular selections.
func solveSquare(rows [][]float64, rhs []float64, idx []int) ([]float64, bool) {
	n := len(idx)
	a := make([][]float64, n)
	b := make([]float64, n)
	for i, ri := range idx {
		a[i] = append([]float64(nil), rows[ri]...)
		b[i] = rhs[ri]
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > 1e-9 && (piv == -1 || math.Abs(a[r][col]) > math.Abs(a[piv][col])) {
				piv = r
			}
		}
		if piv == -1 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		p := a[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / p
			if f == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, true
}
