package lp

import (
	"math/rand"
	"testing"
)

// benchProblem builds a mid-size dense LP (25 variables, 40 rows) so
// the benchmarks exercise more than toy tableaus. Deterministic seed:
// the same program every run.
func benchProblem(b *testing.B) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 25
	p := NewProblem(n)
	obj := make([]float64, n)
	for i := range obj {
		obj[i] = 0.1 + rng.Float64()
	}
	if err := p.SetObjective(obj); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 40; k++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.Float64()
		}
		if err := p.AddLE(row, 1+rng.Float64()*2); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := p.LowerBound(i, 0.001); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkLPSolve is the cold path on the reusable solver: full
// two-phase solve each iteration, scratch reused across iterations.
func BenchmarkLPSolve(b *testing.B) {
	for _, bc := range []struct {
		name string
		prob func(testing.TB) *Problem
	}{
		{"fig6", func(t testing.TB) *Problem { return fig6Problem(t) }},
		{"dense25x40", func(t testing.TB) *Problem { return benchProblem(b) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := bc.prob(b)
			s := NewSolver()
			var sol Solution
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SolveInto(p, &sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLPSolveReference is the seed implementation on the same
// programs: fresh [][]float64 tableau per solve, Bland-only pricing.
func BenchmarkLPSolveReference(b *testing.B) {
	for _, bc := range []struct {
		name string
		prob func(testing.TB) *Problem
	}{
		{"fig6", func(t testing.TB) *Problem { return fig6Problem(t) }},
		{"dense25x40", func(t testing.TB) *Problem { return benchProblem(b) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := bc.prob(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
