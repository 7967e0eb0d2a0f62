package core

// An exact oracle for the paper's LPs: a simplex over math/big.Rat
// with Bland's rule, and the lexicographic weighted max-min point
// computed on it by progressive filling. With exact arithmetic the
// floor LP's dual certificate is complete — the flows whose floor has
// a negative reduced cost sum, weighted, to t's unit objective, so
// every round certifies at least one — and a certified flow sits at
// w_i·t* at every optimum, so no probe, optTol or freezeTol is needed.

import (
	"errors"
	"math"
	"math/big"

	"e2efair/internal/flow"
)

// ratLP is max c·x subject to rows a_k·x (≤, ≥ or =) b_k and x ≥ 0.
type ratLP struct {
	c     []*big.Rat
	a     [][]*big.Rat
	sense []int8 // −1 ≤, +1 ≥, 0 =
	b     []*big.Rat
}

var errExactInfeasible = errors.New("exact LP infeasible")

// ratTableau is a dense simplex tableau: rows[i] holds row i's
// coefficients over every column, then its right-hand side; obj holds
// the reduced costs c_j − c_B·B⁻¹A_j and, last, minus the objective.
type ratTableau struct {
	rows  [][]big.Rat
	obj   []big.Rat
	basis []int
	cols  int
}

// pivot makes column col basic in row r.
func (t *ratTableau) pivot(r, col int) {
	var f, tmp big.Rat
	pr := t.rows[r]
	inv := new(big.Rat).Inv(&pr[col])
	for j := range pr {
		if pr[j].Sign() != 0 {
			pr[j].Mul(&pr[j], inv)
		}
	}
	elim := func(row []big.Rat) {
		if row[col].Sign() == 0 {
			return
		}
		f.Set(&row[col])
		for j := range row {
			if pr[j].Sign() != 0 {
				row[j].Sub(&row[j], tmp.Mul(&f, &pr[j]))
			}
		}
	}
	for i, row := range t.rows {
		if i != r {
			elim(row)
		}
	}
	elim(t.obj)
	t.basis[r] = col
}

// run maximizes the objective row over the columns allowed, Bland's
// rule: the lowest-index improving column enters, the lowest-index
// basic variable among the tied ratios leaves.
func (t *ratTableau) run(allowed func(int) bool) error {
	rhs := t.cols
	var ratio, best big.Rat
	for {
		col := -1
		for j := 0; j < t.cols; j++ {
			if allowed(j) && t.obj[j].Sign() > 0 {
				col = j
				break
			}
		}
		if col < 0 {
			return nil
		}
		r := -1
		for i, row := range t.rows {
			if row[col].Sign() <= 0 {
				continue
			}
			ratio.Quo(&row[rhs], &row[col])
			if c := ratio.Cmp(&best); r < 0 || c < 0 || c == 0 && t.basis[i] < t.basis[r] {
				r = i
				best.Set(&ratio)
			}
		}
		if r < 0 {
			return errors.New("exact LP unbounded")
		}
		t.pivot(r, col)
	}
}

// solve returns an optimal x and the reduced cost c_j − y·A_j of each
// structural column at that optimum (≤ 0 for all; < 0 means x_j = 0 at
// every optimum).
func (p *ratLP) solve() (x, reduced []*big.Rat, err error) {
	n, m := len(p.c), len(p.a)
	// Columns: structural, one slack or surplus per inequality, one
	// artificial per row whose slack cannot start basic.
	slack := make([]int, m)
	art := make([]int, m)
	cols := n
	for k := range p.a {
		slack[k] = -1
		if p.sense[k] != 0 {
			slack[k] = cols
			cols++
		}
	}
	firstArt := cols
	sign := make([]int, m) // +1 or −1: the row is multiplied by it so b ≥ 0
	for k := range p.a {
		sign[k] = 1
		if p.b[k].Sign() < 0 {
			sign[k] = -1
		}
		art[k] = -1
		// A ≤ row with b ≥ 0 (or a ≥ row with b ≤ 0) starts on its slack.
		if !(p.sense[k] == -1 && sign[k] > 0 || p.sense[k] == 1 && sign[k] < 0) {
			art[k] = cols
			cols++
		}
	}
	t := &ratTableau{cols: cols, basis: make([]int, m)}
	t.rows = make([][]big.Rat, m)
	for k, row := range p.a {
		tr := make([]big.Rat, cols+1)
		s := big.NewRat(int64(sign[k]), 1)
		for j, v := range row {
			if v != nil && v.Sign() != 0 {
				tr[j].Mul(v, s)
			}
		}
		if slack[k] >= 0 {
			// ≤ adds +s, ≥ subtracts s; then the row's sign flip.
			tr[slack[k]].SetInt64(int64(-int(p.sense[k]) * sign[k]))
		}
		tr[cols].Mul(p.b[k], s)
		if art[k] >= 0 {
			tr[art[k]].SetInt64(1)
			t.basis[k] = art[k]
		} else {
			t.basis[k] = slack[k]
		}
		t.rows[k] = tr
	}
	// Phase 1: maximize −Σ artificials, priced out against the basis.
	t.obj = make([]big.Rat, cols+1)
	for k, row := range t.rows {
		if art[k] >= 0 {
			for j := 0; j <= cols; j++ {
				if j < firstArt || j == cols {
					t.obj[j].Add(&t.obj[j], &row[j])
				}
			}
		}
	}
	if err := t.run(func(j int) bool { return j < firstArt }); err != nil {
		return nil, nil, err
	}
	if t.obj[cols].Sign() != 0 {
		return nil, nil, errExactInfeasible
	}
	// Drive artificials still basic (at zero) out of the basis, or drop
	// their rows when redundant.
	for i := 0; i < len(t.rows); i++ {
		if t.basis[i] < firstArt {
			continue
		}
		col := -1
		for j := 0; j < firstArt; j++ {
			if t.rows[i][j].Sign() != 0 {
				col = j
				break
			}
		}
		if col < 0 {
			t.rows = append(t.rows[:i], t.rows[i+1:]...)
			t.basis = append(t.basis[:i], t.basis[i+1:]...)
			i--
			continue
		}
		t.pivot(i, col)
	}
	// Phase 2: the real objective, priced out against the basis.
	for j := range t.obj {
		t.obj[j].SetInt64(0)
	}
	for j, c := range p.c {
		if c != nil {
			t.obj[j].Set(c)
		}
	}
	var tmp big.Rat
	for i, b := range t.basis {
		if b < n && p.c[b] != nil && p.c[b].Sign() != 0 {
			cb := new(big.Rat).Set(p.c[b])
			for j := 0; j <= cols; j++ {
				if t.rows[i][j].Sign() != 0 {
					t.obj[j].Sub(&t.obj[j], tmp.Mul(cb, &t.rows[i][j]))
				}
			}
		}
	}
	if err := t.run(func(j int) bool { return j < firstArt }); err != nil {
		return nil, nil, err
	}
	x = make([]*big.Rat, n)
	reduced = make([]*big.Rat, n)
	for j := range x {
		x[j] = new(big.Rat)
		reduced[j] = new(big.Rat).Set(&t.obj[j])
	}
	for i, b := range t.basis {
		if b < n {
			x[b].Set(&t.rows[i][cols])
		}
	}
	return x, reduced, nil
}

// exactMaxMin returns the exact lexicographic weighted max-min point
// among the optima of max Σ x subject to rows·x ≤ 1 and x ≥ basic,
// where basic_i = w_i·t0 for one t0, as in every caller's floors.
func exactMaxMin(rows [][]float64, basic, weights []*big.Rat) ([]*big.Rat, error) {
	n := len(basic)
	one := big.NewRat(1, 1)
	a := make([][]*big.Rat, len(rows))
	for k, r := range rows {
		a[k] = make([]*big.Rat, len(r))
		for i, v := range r {
			a[k][i] = new(big.Rat).SetFloat64(v)
		}
	}
	// The optimal total: max Σ z over z = x − basic ≥ 0.
	p := &ratLP{c: make([]*big.Rat, n)}
	for i := range p.c {
		p.c[i] = one
	}
	for _, r := range a {
		b := new(big.Rat).Set(one)
		for i, v := range r {
			b.Sub(b, new(big.Rat).Mul(v, basic[i]))
		}
		p.a, p.sense, p.b = append(p.a, r), append(p.sense, -1), append(p.b, b)
	}
	z, _, err := p.solve()
	if err != nil {
		return nil, err
	}
	opt := new(big.Rat)
	for i := range z {
		opt.Add(opt, z[i]).Add(opt, basic[i])
	}
	// Rounds over columns z_i (unfrozen i, x_i = w_i·t + z_i) and t:
	// max t subject to the cliques and Σ x ≥ opt.
	value := make([]*big.Rat, n)
	for remaining := n; remaining > 0; {
		var free []int
		for i := range value {
			if value[i] == nil {
				free = append(free, i)
			}
		}
		k := len(free)
		p := &ratLP{c: make([]*big.Rat, k+1)}
		p.c[k] = one
		row := func(coef []*big.Rat) []*big.Rat {
			out := make([]*big.Rat, k+1)
			out[k] = new(big.Rat)
			for c, i := range free {
				out[c] = coef[i]
				out[k].Add(out[k], new(big.Rat).Mul(coef[i], weights[i]))
			}
			return out
		}
		for _, r := range a {
			b := new(big.Rat).Set(one)
			for i, v := range r {
				if value[i] != nil {
					b.Sub(b, new(big.Rat).Mul(v, value[i]))
				}
			}
			p.a, p.sense, p.b = append(p.a, row(r)), append(p.sense, -1), append(p.b, b)
		}
		ones := make([]*big.Rat, n)
		b := new(big.Rat).Set(opt)
		for i := range ones {
			ones[i] = one
			if value[i] != nil {
				b.Sub(b, value[i])
			}
		}
		p.a, p.sense, p.b = append(p.a, row(ones)), append(p.sense, 1), append(p.b, b)
		x, reduced, err := p.solve()
		if err != nil {
			return nil, err
		}
		t := x[k]
		progress := false
		for c, i := range free {
			if reduced[c].Sign() < 0 {
				value[i] = new(big.Rat).Mul(weights[i], t)
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, errors.New("exact max-min: a round certified no flow")
		}
	}
	return value, nil
}

// ratOf returns the simplest fraction within 2⁻⁵⁰·|x| of x: the small
// fraction a float such as 0.2 or 1/3 stands for.
func ratOf(x float64) *big.Rat {
	exact := new(big.Rat).SetFloat64(x)
	tol := new(big.Rat).Abs(exact)
	tol.Mul(tol, new(big.Rat).SetFrac64(1, 1<<50))
	// Continued-fraction convergents of exact.
	h0, h1 := big.NewInt(0), big.NewInt(1)
	k0, k1 := big.NewInt(1), big.NewInt(0)
	num, den := new(big.Int).Set(exact.Num()), new(big.Int).Set(exact.Denom())
	var q, r big.Int
	for den.Sign() != 0 {
		q.DivMod(num, den, &r)
		h0, h1 = h1, new(big.Int).Add(new(big.Int).Mul(&q, h1), h0)
		k0, k1 = k1, new(big.Int).Add(new(big.Int).Mul(&q, k1), k0)
		conv := new(big.Rat).SetFrac(h1, k1)
		if new(big.Rat).Abs(new(big.Rat).Sub(conv, exact)).Cmp(tol) <= 0 {
			return conv
		}
		num, den = den, new(big.Int).Set(&r)
	}
	return exact
}

// exactCentralized is the exact 2PA-C point with refinement: each
// group's exact max-min point, with the basic shares w_i/Σ w_j·v_j
// and the weights as exact fractions of the flows' float weights.
func exactCentralized(inst *Instance) (map[flow.ID]*big.Rat, error) {
	out := make(map[flow.ID]*big.Rat)
	for _, g := range inst.groups() {
		denom := new(big.Rat)
		weights := make([]*big.Rat, len(g.flows))
		for i, f := range g.flows {
			weights[i] = new(big.Rat).SetFloat64(f.Weight())
			denom.Add(denom, new(big.Rat).Mul(weights[i], big.NewRat(int64(f.VirtualLength()), 1)))
		}
		basic := make([]*big.Rat, len(g.flows))
		for i := range basic {
			basic[i] = new(big.Rat).Quo(weights[i], denom)
		}
		x, err := exactMaxMin(g.lpRows(), basic, weights)
		if err != nil {
			return nil, err
		}
		for i, id := range g.ids {
			out[id] = x[i]
		}
	}
	return out, nil
}

// exactError returns the largest |got_i − exact_i| over the flows.
func exactError(got FlowAllocation, exact map[flow.ID]*big.Rat) float64 {
	var worst float64
	for id, x := range exact {
		e, _ := x.Float64()
		worst = max(worst, math.Abs(got[id]-e))
	}
	return worst
}
