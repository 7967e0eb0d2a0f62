package core

import (
	"errors"
	"fmt"

	"e2efair/internal/contention"
	"e2efair/internal/lp"
)

// scheduleTol is the tolerance on total schedule length.
const scheduleTol = 1e-7

// ScheduleEntry is one time-shared activation in a fractional
// schedule: the independent set of subflow vertices active together
// for the given fraction of time.
type ScheduleEntry struct {
	Set      []int
	Fraction float64
}

// Schedulability reports whether a per-subflow rate vector can be
// realized by time-sharing independent sets of the contention graph,
// and if so with what schedule. The paper's pentagon example (Fig. 5)
// is the canonical instance where the Prop. 1 upper bound B/2 per flow
// passes every clique constraint yet fails this test.
type Schedulability struct {
	Feasible bool
	// Load is the minimum total time-fraction needed to serve the
	// rates; feasible iff Load ≤ 1 (within tolerance).
	Load float64
	// Schedule realizes the rates when feasible.
	Schedule []ScheduleEntry
}

// CheckSchedulable determines whether rates (fractions of B, indexed
// by graph vertex) are achievable by some transmission schedule. It
// solves the fractional covering LP over all maximal independent
// sets: minimize Σ_S λ_S subject to Σ_{S∋v} λ_S ≥ rate_v, λ ≥ 0.
// Enumeration of independent sets is exponential in general; intended
// for the analysis-sized graphs of the paper.
func CheckSchedulable(g *contention.Graph, rates []float64) (*Schedulability, error) {
	if len(rates) != g.NumVertices() {
		return nil, fmt.Errorf("core: %d rates for %d subflows", len(rates), g.NumVertices())
	}
	sets := g.MaximalIndependentSets()
	if len(sets) == 0 {
		// No vertices: trivially feasible.
		return &Schedulability{Feasible: true}, nil
	}
	p := lp.NewProblem(len(sets))
	obj := make([]float64, len(sets))
	for i := range obj {
		obj[i] = -1 // maximize -Σλ == minimize Σλ
	}
	if err := p.SetObjective(obj); err != nil {
		return nil, err
	}
	for v := 0; v < g.NumVertices(); v++ {
		row := make([]float64, len(sets))
		for si, set := range sets {
			for _, u := range set {
				if u == v {
					row[si] = 1
					break
				}
			}
		}
		if err := p.AddGE(row, rates[v]); err != nil {
			return nil, err
		}
	}
	sol, err := lp.NewSolver().Solve(p)
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return &Schedulability{Feasible: false, Load: -1}, nil
		}
		return nil, err
	}
	load := -sol.Objective
	res := &Schedulability{Load: load, Feasible: load <= 1+scheduleTol}
	if res.Feasible {
		for si, lam := range sol.X {
			if lam > scheduleTol {
				set := make([]int, len(sets[si]))
				copy(set, sets[si])
				res.Schedule = append(res.Schedule, ScheduleEntry{Set: set, Fraction: lam})
			}
		}
	}
	return res, nil
}

// MaxSchedulableFairRate returns the largest t such that giving every
// subflow vertex the rate w_v·t is schedulable — the *achievable*
// counterpart of the Prop. 1 upper bound B/ω_Ω. For the pentagon
// example with unit weights it returns 2/5 while Prop. 1 allows 1/2.
func MaxSchedulableFairRate(g *contention.Graph) (float64, error) {
	sets := g.MaximalIndependentSets()
	if len(sets) == 0 {
		return 0, nil
	}
	n := g.NumVertices()
	// Variables: λ_1..λ_m, then t.
	p := lp.NewProblem(len(sets) + 1)
	obj := make([]float64, len(sets)+1)
	obj[len(sets)] = 1
	if err := p.SetObjective(obj); err != nil {
		return 0, err
	}
	for v := 0; v < n; v++ {
		row := make([]float64, len(sets)+1)
		for si, set := range sets {
			for _, u := range set {
				if u == v {
					row[si] = 1
					break
				}
			}
		}
		row[len(sets)] = -g.Subflow(v).Weight
		if err := p.AddGE(row, 0); err != nil {
			return 0, err
		}
	}
	total := make([]float64, len(sets)+1)
	for i := range sets {
		total[i] = 1
	}
	if err := p.AddLE(total, 1); err != nil {
		return 0, err
	}
	sol, err := lp.NewSolver().Solve(p)
	if err != nil {
		return 0, err
	}
	return sol.X[len(sets)], nil
}
