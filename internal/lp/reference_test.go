package lp

// The seed's allocate-per-call, Bland-only Solve is retained as the
// reference implementation; the reusable compact-tableau Solver must
// classify every program identically (optimal / infeasible /
// unbounded), match optimal objectives everywhere, and match the
// optimal vertex where it is unique. The randomized cross-checks below
// sweep LE/GE/EQ rows, negative RHS, degenerate and infeasible /
// unbounded programs.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Solve runs the two-phase simplex method and returns an optimal
// solution, ErrInfeasible, or ErrUnbounded.
//
// This is the seed's reference implementation: a fresh [][]float64
// tableau per call and Bland's rule throughout. The production Solver
// (solver.go) is pinned against it by the randomized cross-checks
// below; keep it boring.
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
	width := len(cost)

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

// randomProblem builds a seeded random LP. With boxed set, every
// variable gets an upper bound so the program cannot be unbounded;
// without it, unbounded programs are part of the draw.
func randomProblem(rng *rand.Rand, boxed bool) *Problem {
	n := 1 + rng.Intn(5)
	m := 1 + rng.Intn(7)
	p := NewProblem(n)
	obj := make([]float64, n)
	for i := range obj {
		obj[i] = rng.Float64()*4 - 1
	}
	if err := p.SetObjective(obj); err != nil {
		panic(err)
	}
	for k := 0; k < m; k++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.Float64()*4 - 1
		}
		rhs := rng.Float64()*3 - 1 // negative RHS in roughly a third of rows
		var err error
		switch rng.Intn(4) {
		case 0:
			err = p.AddGE(row, rhs)
		case 1:
			err = p.AddEQ(row, rhs)
		default:
			err = p.AddLE(row, rhs)
		}
		if err != nil {
			panic(err)
		}
	}
	if boxed {
		for i := 0; i < n; i++ {
			if err := p.UpperBound(i, 1+rng.Float64()*3); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// classify maps a solve outcome onto a comparable label.
func classify(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "optimal"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	default:
		t.Fatalf("unexpected solve error: %v", err)
		return ""
	}
}

func TestSolverMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewSolver() // one solver across every trial: scratch reuse under test
	var sol Solution
	optimal := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, trial%3 != 0) // every third draw may be unbounded
		ref, refErr := Solve(p)
		gotErr := s.SolveInto(p, &sol)
		refKind, gotKind := classify(t, refErr), classify(t, gotErr)
		if refKind != gotKind {
			t.Fatalf("trial %d: reference %s, solver %s", trial, refKind, gotKind)
		}
		if refKind != "optimal" {
			continue
		}
		optimal++
		if math.Abs(ref.Objective-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: reference objective %g, solver %g", trial, ref.Objective, sol.Objective)
		}
		// The solver's point must satisfy every constraint of p.
		for k := 0; k < p.NumConstraints(); k++ {
			c := p.constraints[k]
			var lhs float64
			for i, a := range c.Coeffs {
				lhs += a * sol.X[i]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+1e-6 {
					t.Fatalf("trial %d: row %d: %g > %g", trial, k, lhs, c.RHS)
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					t.Fatalf("trial %d: row %d: %g < %g", trial, k, lhs, c.RHS)
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-6 {
					t.Fatalf("trial %d: row %d: %g != %g", trial, k, lhs, c.RHS)
				}
			}
		}
		for i, v := range sol.X {
			if v < -1e-9 {
				t.Fatalf("trial %d: x[%d] = %g < 0", trial, i, v)
			}
		}
	}
	if optimal < 50 {
		t.Fatalf("only %d optimal trials; generator needs retuning", optimal)
	}
}

// TestSolverMatchesReferenceUniqueVertex draws programs whose optimum
// is unique with probability one (non-degenerate random objective over
// LE rows with positive coefficients) and demands the exact vertex.
func TestSolverMatchesReferenceUniqueVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewSolver()
	var sol Solution
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		p := NewProblem(n)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = 0.1 + rng.Float64()
		}
		if err := p.SetObjective(obj); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < m; k++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = 0.1 + rng.Float64()
			}
			if err := p.AddLE(row, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if err := p.UpperBound(i, 1+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if err := s.SolveInto(p, &sol); err != nil {
			t.Fatalf("trial %d: solver: %v", trial, err)
		}
		if math.Abs(ref.Objective-sol.Objective) > 1e-7 {
			t.Fatalf("trial %d: objective %g vs %g", trial, sol.Objective, ref.Objective)
		}
		for i := range sol.X {
			if math.Abs(ref.X[i]-sol.X[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %g, reference %g (x=%v ref=%v)",
					trial, i, sol.X[i], ref.X[i], sol.X, ref.X)
			}
		}
	}
}
