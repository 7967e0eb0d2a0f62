package lp

// The full-tableau simplex the production Solver replaced is kept here
// as the oracle it is checked against (TestSolverMatchesFullTableau below). It stores
// every column — decision variables, slacks, surpluses and
// artificials, basic or not — in one flat row-major tableau and pivots
// over all of them. The compact Solver follows exactly the same pivot
// path on the columns it keeps, so every objective, point, dual,
// reduced cost, error and work count must match this one bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullSolver is the full-tableau two-phase primal simplex: Dantzig
// pricing with a Bland fallback after stallLimit non-improving pivots,
// ties to the smallest column index.
type fullSolver struct {
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

	solves, cold, pivots int // cumulative work, see Work

	// stallLimit counts consecutive non-improving pivots tolerated
	// under Dantzig pricing before the Bland fallback; maxIter, when
	// positive, overrides the default iteration cap. Fields rather
	// than constants so tests can force each regime.
	stallLimit int
	maxIter    int
}

func newFullSolver() *fullSolver {
	return &fullSolver{stallLimit: defaultStallLimit}
}

// SolveInto solves p from a cold start into sol.
func (s *fullSolver) SolveInto(p *Problem, sol *Solution) error {
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

// ReoptimizeInto is Solver.ReoptimizeInto: phase 2 from the retained
// tableau, or a cold solve when p changed since.
func (s *fullSolver) ReoptimizeInto(p *Problem, sol *Solution) error {
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

// Dual is Solver.Dual, read off the full reduced-cost row.
func (s *fullSolver) Dual(i int) float64 {
	if s.last == nil || i < 0 || i >= s.ncons {
		return 0
	}
	return s.dualSign[i] * s.z[s.dualCol[i]]
}

// ReducedCost is Solver.ReducedCost, read off the full reduced-cost
// row, where a basic column's entry is zero.
func (s *fullSolver) ReducedCost(j int) float64 {
	if s.last == nil || j < 0 || j >= s.n {
		return 0
	}
	return s.z[j]
}

// Work is Solver.Work.
func (s *fullSolver) Work() (solves, cold, pivots int) { return s.solves, s.cold, s.pivots }

func (s *fullSolver) row(i int) []float64 { return s.tab[i*s.stride : (i+1)*s.stride] }

// load normalizes p into the full tableau as Solver.load does, storing
// the basic slack and artificial columns too.
func (s *fullSolver) load(p *Problem) {
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

func (s *fullSolver) phase1() error {
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

func (s *fullSolver) phase2(p *Problem) (float64, error) {
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
func (s *fullSolver) simplex(enterLimit int) (float64, error) {
	width := s.width
	s.z = growFloat(s.z, s.stride)
	z := s.z
	for j := 0; j < width; j++ {
		z[j] = -s.cost[j]
	}
	z[width] = 0
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
func (s *fullSolver) pivot(row, col int) {
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

func (s *fullSolver) extract(sol *Solution, obj float64) {
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

// sameOutcome fails t unless the compact Solver and the full-tableau
// oracle agree exactly on one solve: the error text (which carries its
// class and any iteration count), the cumulative solve, cold-solve and
// pivot counts, and on success the objective, every X, every row's
// dual and every decision variable's reduced cost, all compared bit
// for bit.
func sameOutcome(t *testing.T, what string, p *Problem, s *Solver, f *fullSolver, sol, ref *Solution, err, refErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, full tableau %v", what, err, refErr)
	}
	solves, cold, pivots := s.Work()
	refSolves, refCold, refPivots := f.Work()
	if solves != refSolves || cold != refCold || pivots != refPivots {
		t.Fatalf("%s: work %d solves/%d cold/%d pivots, full tableau %d/%d/%d", what, solves, cold, pivots, refSolves, refCold, refPivots)
	}
	if err != nil {
		return
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(sol.Objective, ref.Objective) {
		t.Fatalf("%s: objective %v, full tableau %v", what, sol.Objective, ref.Objective)
	}
	for j := range ref.X {
		if !same(sol.X[j], ref.X[j]) {
			t.Fatalf("%s: x[%d] = %v, full tableau %v", what, j, sol.X[j], ref.X[j])
		}
	}
	for i := -1; i <= p.NumConstraints(); i++ {
		if d, refD := s.Dual(i), f.Dual(i); !same(d, refD) && !(d == 0 && refD == 0) {
			t.Fatalf("%s: dual %d = %v, full tableau %v", what, i, d, refD)
		}
	}
	for j := -1; j <= p.n; j++ {
		if d, refD := s.ReducedCost(j), f.ReducedCost(j); !same(d, refD) && !(d == 0 && refD == 0) {
			t.Fatalf("%s: reduced cost %d = %v, full tableau %v", what, j, d, refD)
		}
	}
}

// diffProblem draws a small LP built to hit the simplex's corner
// cases: coefficients from a coarse grid, so zeros and ties are
// common; LE/GE/EQ rows, most of them tight or nearly tight at a
// hidden grid point x0, so that degenerate vertices abound; negative
// and zero right-hand sides; repeated, rescaled equality rows, which
// phase 1 finds redundant; a few rows with a random RHS, which make
// some programs infeasible; and, unboxed, unbounded programs.
func diffProblem(rng *rand.Rand) *Problem {
	grid := []float64{-2, -1, -0.5, 0, 0, 0, 0.5, 1, 1, 2, 3}
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()*4 - 1
		}
		return grid[rng.Intn(len(grid))]
	}
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(9)
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := range x0 {
		x0[j] = math.Abs(grid[rng.Intn(len(grid))])
		if err := p.SetObjectiveCoeff(j, draw()); err != nil {
			panic(err)
		}
	}
	row := make([]float64, n)
	for k := 0; k < m; k++ {
		if k > 0 && rng.Intn(6) == 0 {
			c := p.constraints[rng.Intn(k)]
			scale := []float64{1, 2, -1}[rng.Intn(3)]
			for j, a := range c.Coeffs {
				row[j] = scale * a
			}
			if err := p.AddEQ(row, scale*c.RHS); err != nil {
				panic(err)
			}
			continue
		}
		at := 0.0
		for j := range row {
			row[j] = draw()
			at += row[j] * x0[j]
		}
		sense := []Sense{LE, LE, LE, GE, EQ}[rng.Intn(5)]
		rhs := at
		switch {
		case rng.Intn(8) == 0:
			rhs = draw()
		case sense == LE && rng.Intn(2) == 0:
			rhs += float64(rng.Intn(3))
		case sense == GE && rng.Intn(2) == 0:
			rhs -= float64(rng.Intn(3))
		}
		if err := p.AddConstraint(row, sense, rhs); err != nil {
			panic(err)
		}
	}
	if rng.Intn(3) != 0 {
		for j := 0; j < n; j++ {
			if err := p.UpperBound(j, x0[j]+float64(rng.Intn(3))); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// solvePair runs one cold solve followed by a chain of objective-only
// re-optimizations on both solvers, changing one objective coefficient
// before each link (and, now and then, a RHS, which forces the cold
// fallback), and checks every step with sameOutcome. It returns the
// cold solve's error.
func solvePair(t *testing.T, what string, p *Problem, s *Solver, f *fullSolver, rng *rand.Rand, chain int) error {
	t.Helper()
	var sol, ref Solution
	coldErr, refErr := s.SolveInto(p, &sol), f.SolveInto(p, &ref)
	sameOutcome(t, what, p, s, f, &sol, &ref, coldErr, refErr)
	for link := 0; link < chain; link++ {
		if rng.Intn(8) == 0 {
			i := rng.Intn(p.NumConstraints())
			if err := p.SetRHS(i, p.constraints[i].RHS+0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.SetObjectiveCoeff(rng.Intn(p.n), float64(rng.Intn(7)-2)); err != nil {
			t.Fatal(err)
		}
		err, refErr := s.ReoptimizeInto(p, &sol), f.ReoptimizeInto(p, &ref)
		sameOutcome(t, fmt.Sprintf("%s reoptimize %d", what, link), p, s, f, &sol, &ref, err, refErr)
	}
	return coldErr
}

// TestSolverMatchesFullTableau is the compact tableau's differential
// test: thousands of corner-case programs, each solved cold and then
// re-optimized along an objective chain, must agree with the full
// tableau exactly on three long-lived solver pairs — Dantzig pricing,
// stallLimit 0 (Bland's rule throughout), and an iteration cap of 3,
// which compares the ErrIterationLimit path too.
//
// A zero dual or reduced cost is compared as a number, not as bits:
// the full tableau reaches some zero reduced costs through arithmetic
// on the unit columns the compact tableau never stores, so the two may
// disagree on the sign of a zero. Every nonzero dual and reduced cost,
// and every objective and X, must match to the bit.
func TestSolverMatchesFullTableau(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, cfg := range []struct{ stall, maxIter int }{{defaultStallLimit, 0}, {0, 0}, {defaultStallLimit, 3}} {
		s, f := NewSolver(), newFullSolver()
		s.stallLimit, f.stallLimit = cfg.stall, cfg.stall
		s.maxIter, f.maxIter = cfg.maxIter, cfg.maxIter
		outcomes := map[error]int{}
		for trial := 0; trial < 4000; trial++ {
			err := solvePair(t, fmt.Sprintf("%+v trial %d", cfg, trial), diffProblem(rng), s, f, rng, 4)
			for _, kind := range []error{ErrInfeasible, ErrUnbounded, ErrIterationLimit} {
				if errors.Is(err, kind) {
					err = kind
				}
			}
			outcomes[err]++
		}
		// The draw must exercise every outcome the solver can report.
		want := []error{nil, ErrInfeasible, ErrUnbounded}
		if cfg.maxIter > 0 {
			want = append(want, ErrIterationLimit)
		}
		for _, kind := range want {
			if outcomes[kind] < 200 {
				t.Fatalf("%+v: %d programs of 4000 end in %v; retune diffProblem (%v)", cfg, outcomes[kind], kind, outcomes)
			}
		}
	}
}

// FuzzSolverMatchesFullTableau checks the differential property on
// programs decoded from the fuzzer's bytes (see fuzzProblem).
func FuzzSolverMatchesFullTableau(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{3, 4, 0, 9, 9, 9, 0, 0, 0, 0, 1, 1, 1, 7, 2, 2, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, stall := fuzzProblem(data)
		s, full := NewSolver(), newFullSolver()
		s.stallLimit, full.stallLimit = stall, stall
		solvePair(t, "fuzz", p, s, full, rand.New(rand.NewSource(int64(len(data)))), 3)
	})
}

// fuzzProblem decodes bytes into a program over a coarse value grid:
// variable and row counts, the pricing regime (stallLimit 0 or the
// default), the objective, then per row a sense, a RHS and the
// coefficients. Missing bytes read as zero.
func fuzzProblem(data []byte) (*Problem, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	grid := []float64{0, 1, -1, 2, 0.5, -2, 3, 0, -0.5, 1, 0.25, 4}
	val := func() float64 { return grid[int(next())%len(grid)] }
	n := 1 + int(next())%6
	m := 1 + int(next())%8
	stall := defaultStallLimit
	if next()%2 == 0 {
		stall = 0
	}
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.objective[j] = val()
	}
	row := make([]float64, n)
	for k := 0; k < m; k++ {
		sense := Sense(1 + int(next())%3)
		rhs := val()
		for j := range row {
			row[j] = val()
		}
		if err := p.AddConstraint(row, sense, rhs); err != nil {
			panic(err)
		}
	}
	return p, stall
}
