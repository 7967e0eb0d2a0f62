package core

import (
	"fmt"
	"slices"
	"sync"
)

// CentralizedOptions configures the centralized phase-1 algorithm.
type CentralizedOptions struct {
	// Refine applies the lexicographic weighted max-min refinement
	// among alternate LP optima. The paper's worked solutions (Fig. 6:
	// (B/3, B/3, 2B/3, B/8, 3B/4)) correspond to the refined vertex;
	// without refinement any optimal vertex may be returned.
	Refine bool
}

// Delta reports how much allocation work one centralized solve
// actually did: of the instance's contending flow groups, how many
// group LPs were solved fresh and how many were satisfied from the
// Allocator's share cache. A churn event that perturbs one contention
// component shows Solved equal to the number of changed components and
// Reused equal to the rest.
type Delta struct {
	// Groups is the number of contending flow groups in the instance.
	Groups int
	// Solved counts groups whose LPs were solved on this call (cache
	// misses).
	Solved int
	// Reused counts groups whose shares were copied from the cache
	// (cache hits).
	Reused int
	// Evicted counts cache entries this call's inserts pushed out of
	// the size-capped LRU; see Allocator.SetGroupCacheCap. Eviction
	// never changes results, only future Solved/Reused splits.
	Evicted int
	// LPSolves counts the LP solves the Solved groups took: each
	// group's optimal total plus, under Refine, the refinement's floor,
	// re-derivation and probe LPs.
	LPSolves int
}

// CentralizedAllocate solves the paper's linear program (Sec. III-B,
// Prop. 2) per contending flow group:
//
//	maximize  Σ_i r̂_i
//	subject to Σ_i n_{i,k}·r̂_i ≤ B        for every maximal clique Ω_k
//	           r̂_i ≥ w_i·B/Σ_j w_j·v_j    (basic fairness)
//
// and returns the optimal allocation strategy. With opts.Refine the
// solution is additionally the lexicographically weighted-max-min
// fairest point among all optima, which makes the result deterministic
// and matches the solutions tabulated in the paper.
//
// Each call builds fresh solver state; hold an Allocator and call its
// Centralized method to shard group LPs across workers, reuse tableau
// scratch, and serve repeated group structures from the share cache
// (churn re-solves, sweeps).
func CentralizedAllocate(inst *Instance, opts CentralizedOptions) (FlowAllocation, error) {
	return NewAllocatorWorkers(1).Centralized(inst, opts)
}

// Centralized is CentralizedAllocate on this Allocator's reusable
// solver state. The instance's contending flow groups decompose the LP
// exactly (distinct groups share no constraint), so group LPs are
// independent: groups missing from the share cache are sharded across
// the Allocator's worker sessions, each worker solving on its own
// tableau scratch, and results are merged in group order. Every group
// solve is a pure function of the group's LP, so the output is
// bit-identical whatever the worker count, and bit-identical to the
// retained sequential walk (workers = 1), which the property tests pin
// as the cross-check oracle.
func (a *Allocator) Centralized(inst *Instance, opts CentralizedOptions) (FlowAllocation, error) {
	out, _, err := a.centralized(inst, opts)
	return out, err
}

// CentralizedDelta is Centralized plus a Delta describing how many
// group LPs the call solved versus served from the share cache. The
// dynamic layers (netsim.RunDynamic, mobility churn, the resilient
// path's re-solve-on-reroute) call this seam so that an event touching
// one contention component pays for one group solve, not a full
// re-solve.
func (a *Allocator) CentralizedDelta(inst *Instance, opts CentralizedOptions) (FlowAllocation, Delta, error) {
	return a.centralized(inst, opts)
}

func (a *Allocator) centralized(inst *Instance, opts CentralizedOptions) (FlowAllocation, Delta, error) {
	a.enterGuard()
	defer a.exitGuard()
	groups := inst.groups()
	delta := Delta{Groups: len(groups)}
	shares := make([][]float64, len(groups))
	a.pending = a.pending[:0]
	for gi, g := range groups {
		if x, ok := a.cache.get(groupCacheKey{g.key, opts.Refine}); ok {
			shares[gi] = x
			delta.Reused++
			continue
		}
		a.pending = append(a.pending, gi)
	}
	lpBefore := a.lpSolves()
	if err := a.solveGroups(groups, a.pending, shares, opts.Refine); err != nil {
		return nil, Delta{}, err
	}
	delta.Solved = len(a.pending)
	delta.LPSolves = a.lpSolves() - lpBefore
	for _, gi := range a.pending {
		delta.Evicted += a.cache.put(groupCacheKey{groups[gi].key, opts.Refine}, shares[gi])
	}
	out := make(FlowAllocation, inst.Flows.Len())
	for gi, g := range groups {
		x := shares[gi]
		for i, id := range g.ids {
			out[id] = x[i]
		}
	}
	return out, delta, nil
}

// lpSolves sums the LP solves run on the Allocator's sessions.
func (a *Allocator) lpSolves() int {
	var n int
	for _, s := range a.sessions {
		solves, _ := s.solver.Work()
		n += solves
	}
	return n
}

// shardMinGroups is the work-size cutoff below which the sharded path
// stays sequential: fanning goroutines out for a handful of small LPs
// costs more than the solves themselves (the same effect the
// distributed path's per-worker node batching addresses).
const shardMinGroups = 4

// solveGroups solves the pending groups, writing each owned share
// vector into shares at its group index. Groups are assigned to
// workers round-robin in pending order, results are index-addressed,
// and on error the lowest-indexed failing group wins — so shares,
// error, everything is independent of worker count and scheduling.
func (a *Allocator) solveGroups(groups []*group, pending []int, shares [][]float64, refine bool) error {
	workers := a.workers
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 || len(pending) < shardMinGroups {
		s := a.sessions[0]
		for _, gi := range pending {
			x, err := s.solveGroup(groups[gi], refine)
			if err != nil {
				return err
			}
			shares[gi] = x
		}
		return nil
	}
	errs := make([]error, len(pending))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.sessions[w]
			for k := w; k < len(pending); k += workers {
				gi := pending[k]
				x, err := s.solveGroup(groups[gi], refine)
				if err != nil {
					errs[k] = err
					continue
				}
				shares[gi] = x
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// solveGroup solves one contending flow group's LP with B normalized
// to 1 and returns an owned share vector in group index order. It is a
// pure function of (rows, basic, weights, refine): it never consults
// caches or other cross-solve state, so any session computes
// bit-identical output — the property the sharded fan-out and the
// share cache both rest on.
func (s *session) solveGroup(g *group, refine bool) ([]float64, error) {
	x, obj, err := s.maximizeTotal(g.lpRows(), g.basic)
	if err != nil {
		return nil, fmt.Errorf("core: centralized allocation: %w", err)
	}
	if refine {
		x, err = s.refineMaxMin(g.lpRows(), g.basic, g.weights, obj)
		if err != nil {
			return nil, fmt.Errorf("core: max-min refinement: %w", err)
		}
		return x, nil
	}
	// maximizeTotal returns the session's solution scratch; copy out.
	out := make([]float64, len(x))
	copy(out, x)
	return out, nil
}

// refinement tolerances: optTol is the slack allowed on the optimal
// total, freezeTol decides whether a flow can still grow, and dualTol
// is the shadow price above which a floor row certifies its flow as
// blocking.
const (
	optTol    = 1e-7
	freezeTol = 1e-6
	dualTol   = 1e-9
)

// refineMaxMin computes the lexicographic weighted max-min fairest
// point among the optima of max Σ x_i subject to rows·x ≤ 1,
// x ≥ basic. It repeatedly maximizes the smallest normalized share
// x_i/w_i among unfrozen flows, then freezes the flows that cannot
// exceed that level, in the style of progressive filling.
//
// A flow is frozen by one of two tests. Most are certified by the
// floor LP's duals: a floor row with a positive shadow price binds at
// every optimum of max t (complementary slackness), so its flow cannot
// rise above w_i·t* without lowering t*. This is the dual test of
// LP-based max-min fairness (Radunović & Le Boudec, IEEE/ACM ToN 2007).
// A flow whose floor has a zero dual and that sits at the threshold is
// probed: one LP maximizes its share among the round's optima.
func (s *session) refineMaxMin(rows [][]float64, basic, weights []float64, opt float64) ([]float64, error) {
	n := len(basic)
	frozen := make([]bool, n)
	value := make([]float64, n)
	first := true
	for remaining := n; remaining > 0; {
		// Re-derive the optimal total against the current frozen set:
		// freezing at w·t* carries rounding error that would otherwise
		// accumulate into infeasibility of the Σx ≥ opt constraint. In
		// the first round nothing is frozen and the caller's opt is
		// exactly this program's optimum, so the solve is skipped.
		if !first {
			optCur, err := s.maximizeTotalFrozen(rows, basic, frozen, value)
			if err != nil {
				return nil, err
			}
			opt = optCur
		}
		first = false
		t, err := s.maximizeFloor(rows, basic, weights, opt, frozen, value)
		if err != nil {
			return nil, err
		}
		// The floor LP's own solution is the freeze target: freezing
		// several variables in one round at individually-maximized
		// values can be jointly infeasible, while s.point is one
		// consistent optimal vertex.
		point := s.point
		anyFrozen := false
		freeze := func(i int) {
			frozen[i] = true
			value[i] = point[i]
			remaining--
			anyFrozen = true
		}
		for i := 0; i < n; i++ {
			if !frozen[i] && s.blocking[i] && point[i] <= weights[i]*t+freezeTol {
				freeze(i)
			}
		}
		// The probes of one round share one program, which pins the
		// flows frozen so far; only the objective changes between
		// targets, so each probe after the first re-optimizes in place
		// from the vertex the previous one left. A probe that freezes
		// its flow turns that flow's floor into an equality for the
		// probes that follow, so the program is rebuilt.
		built := false
		for i := 0; i < n; i++ {
			// point satisfies every probe constraint, so the probe's
			// maximum is at least point[i]: a variable strictly above
			// the freeze threshold at point cannot freeze, and its
			// probe LP is skipped outright.
			if frozen[i] || point[i] > weights[i]*t+freezeTol {
				continue
			}
			if !built {
				if err := s.buildProbe(rows, basic, weights, opt, frozen, value, t); err != nil {
					return nil, err
				}
				built = true
			}
			xi, err := s.probe(i)
			if err != nil {
				return nil, err
			}
			// Flows that cannot exceed w_i·t* at any optimum freeze.
			if xi <= weights[i]*t+freezeTol {
				freeze(i)
				built = false
			}
		}
		if !anyFrozen {
			// Numerical stall: freeze everything at the consistent
			// point to guarantee progress; in practice unreached.
			for i := 0; i < n; i++ {
				if !frozen[i] {
					freeze(i)
				}
			}
		}
	}
	return value, nil
}

// The refinement LPs below are built in reduced form: frozen variables
// are substituted out as constants and each unfrozen x_i is shifted by
// its active floor (z_i = x_i − shift_i), turning the floors into the
// implicit z ≥ 0 bounds. Clique rows keep nonnegative right-hand sides
// at every reachable state, so their slacks form a feasible basis and
// phase 1 has at most one artificial — the total-optimality row — to
// drive out, instead of one per floor and frozen equality. Every
// program is rebuilt in place in the session's one lp.Problem, on the
// session's column and row scratch.

// reduce assigns a reduced column to every unfrozen variable (s.col[i]
// is −1 for a frozen one) and shifts each variable by value_i when
// frozen and floor_i otherwise. It returns the reduced column count
// and Σ shift.
func (s *session) reduce(frozen []bool, value, floor []float64) (k int, off float64) {
	n := len(frozen)
	s.col = slices.Grow(s.col[:0], n)[:n]
	s.shift = slices.Grow(s.shift[:0], n)[:n]
	for i, f := range frozen {
		if f {
			s.col[i], s.shift[i] = -1, value[i]
		} else {
			s.col[i], s.shift[i] = k, floor[i]
			k++
		}
		off += s.shift[i]
	}
	return k, off
}

// rowBuf returns the session's row scratch with width zeroed entries.
func (s *session) rowBuf(width int) []float64 {
	s.buf = slices.Grow(s.buf[:0], width)[:width]
	clear(s.buf)
	return s.buf
}

// addCliqueRows appends each clique row rewritten over the k reduced
// columns, Σ a_i·z_i ≤ 1 − Σ a_i·shift_i, with width − k trailing zero
// columns.
func (s *session) addCliqueRows(rows [][]float64, k, width int) error {
	for _, r := range rows {
		buf := s.rowBuf(width)
		rhs := 1.0
		for i, a := range r {
			if c := s.col[i]; c >= 0 {
				buf[c] = a
			}
			rhs -= a * s.shift[i]
		}
		if err := s.prob.AddLE(buf, rhs); err != nil {
			return err
		}
	}
	return nil
}

// addTotalRow appends Σ z ≥ rhs over the k reduced columns.
func (s *session) addTotalRow(k, width int, rhs float64) error {
	buf := s.rowBuf(width)
	for j := 0; j < k; j++ {
		buf[j] = 1
	}
	return s.prob.AddGE(buf, rhs)
}

// maximizeTotalFrozen solves max Σx with frozen variables pinned,
// yielding the optimality target for the current refinement round. In
// reduced form the program is pure-LE over the clique rows: no
// artificials at all.
func (s *session) maximizeTotalFrozen(rows [][]float64, basic []float64, frozen []bool, value []float64) (float64, error) {
	k, off := s.reduce(frozen, value, basic)
	s.prob.Reset(k)
	for j := 0; j < k; j++ {
		if err := s.prob.SetObjectiveCoeff(j, 1); err != nil {
			return 0, err
		}
	}
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return 0, err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	return s.sol.Objective + off, nil
}

// maximizeFloor solves: max t subject to rows·x ≤ 1, x ≥ basic,
// Σ x ≥ opt − ε, x_i = value_i for frozen i, x_i ≥ w_i·t otherwise.
// It returns t and leaves the solution's x vector — a consistent
// optimal point used as the freeze target — in s.point, and in
// s.blocking which unfrozen flows' floor rows have a shadow price
// above dualTol. Reduced, the floor rows flip to
// −z_i + w_i·t ≤ basic_i (nonnegative RHS), leaving the total row as
// the only artificial.
func (s *session) maximizeFloor(rows [][]float64, basic, weights []float64, opt float64, frozen []bool, value []float64) (float64, error) {
	n := len(basic)
	k, off := s.reduce(frozen, value, basic)
	s.prob.Reset(k + 1) // reduced columns, then t
	if err := s.prob.SetObjectiveCoeff(k, 1); err != nil {
		return 0, err
	}
	if err := s.addCliqueRows(rows, k, k+1); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if s.col[i] < 0 {
			continue
		}
		buf := s.rowBuf(k + 1)
		buf[s.col[i]] = -1
		buf[k] = weights[i]
		if err := s.prob.AddLE(buf, basic[i]); err != nil {
			return 0, err
		}
	}
	if err := s.addTotalRow(k, k+1, opt-optTol-off); err != nil {
		return 0, err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	// Copy the x-space point and the floor duals out of the solver's
	// scratch: the probe solves that follow reuse both.
	s.point = s.point[:0]
	s.blocking = s.blocking[:0]
	for i := 0; i < n; i++ {
		if c := s.col[i]; c >= 0 {
			s.point = append(s.point, s.sol.X[c]+basic[i])
			s.blocking = append(s.blocking, s.solver.Dual(len(rows)+c) > dualTol)
		} else {
			s.point = append(s.point, value[i])
			s.blocking = append(s.blocking, false)
		}
	}
	return s.sol.X[k], nil
}

// buildProbe rebuilds the session's program as one refinement round's
// shared per-variable probe LP in reduced form. The probe floors
// max(basic_i, w_i·t − ε) are folded into the shifts, so the program
// is the clique rows plus the single total-optimality row; only the
// objective changes between targets (see probe).
func (s *session) buildProbe(rows [][]float64, basic, weights []float64, opt float64, frozen []bool, value []float64, t float64) error {
	n := len(basic)
	s.floor = slices.Grow(s.floor[:0], n)[:n]
	for i := range s.floor {
		s.floor[i] = max(basic[i], weights[i]*t-optTol)
	}
	k, off := s.reduce(frozen, value, s.floor)
	s.prob.Reset(k)
	s.probed = -1
	if err := s.addCliqueRows(rows, k, k); err != nil {
		return err
	}
	return s.addTotalRow(k, k, opt-optTol-off)
}

// probe returns the largest x_i over the probe program. Each probe
// after the first on one program re-optimizes in place from the vertex
// the previous probe left in the solver's tableau.
func (s *session) probe(i int) (float64, error) {
	if s.probed >= 0 {
		if err := s.prob.SetObjectiveCoeff(s.col[s.probed], 0); err != nil {
			return 0, err
		}
	}
	s.probed = i
	if err := s.prob.SetObjectiveCoeff(s.col[i], 1); err != nil {
		return 0, err
	}
	if err := s.solver.ReoptimizeInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	return s.sol.X[s.col[i]] + s.shift[i], nil
}
