package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"e2efair/internal/lp"
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
	// group's optimal total plus, under Refine, the refinement's floor
	// LPs.
	LPSolves int
	// ColdSolves counts the LP solves among LPSolves that started
	// from a fresh tableau rather than re-optimizing a retained one.
	ColdSolves int
	// Pivots counts the simplex pivots those LP solves took.
	Pivots int
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
// serving layer sums each batch's Delta into its shard counters.
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
	solvesBefore, coldBefore, pivotsBefore := a.lpWork()
	if err := a.solveGroups(groups, a.pending, shares, opts.Refine); err != nil {
		return nil, Delta{}, err
	}
	delta.Solved = len(a.pending)
	solves, cold, pivots := a.lpWork()
	delta.LPSolves, delta.ColdSolves, delta.Pivots = solves-solvesBefore, cold-coldBefore, pivots-pivotsBefore
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

// lpWork sums the LP solves, cold solves and pivots run on the
// Allocator's sessions.
func (a *Allocator) lpWork() (solves, cold, pivots int) {
	for _, s := range a.sessions {
		n, c, p := s.solver.Work()
		solves += n
		cold += c
		pivots += p
	}
	return solves, cold, pivots
}

// shardMinGroups is the work-size cutoff below which the sharded path
// stays sequential: fanning goroutines out for a handful of small LPs
// costs more than the solves themselves.
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
	opt, err := s.load(g.lpRows(), g.basic, g.weights)
	if err != nil {
		return nil, fmt.Errorf("core: centralized allocation: %w", err)
	}
	if refine {
		x, err := s.refineMaxMin(opt)
		if err != nil {
			return nil, fmt.Errorf("core: max-min refinement: %w", err)
		}
		return x, nil
	}
	out := make([]float64, len(g.basic))
	t := s.sol.X[len(out)]
	for i, y := range s.sol.X[:len(out)] {
		out[i] = y + s.weights[i]*t
	}
	return out, nil
}

// refinement tolerances: optTol is the slack allowed on the optimal
// total, freezeTol decides whether a flow can still grow, and dualTol
// is the shadow price above which a flow's floor certifies the flow as
// blocking.
const (
	optTol    = 1e-7
	freezeTol = 1e-6
	dualTol   = 1e-9
)

// A group is loaded into the session's lp.Problem once, and every LP
// of its refinement is an edit of that one program, re-solved warm
// from the tableau the previous LP left (lp.Solver.ReoptimizeInto).
// The program has one column per flow, a level column t and, after
// the clique rows Σ a_i·x_i ≤ 1, the total row Σ x_i ≥ R. Column i
// stands for y_i = x_i − w_i·t while flow i is unfrozen and for x_i
// once it is frozen, so t's column is Σ w_i·(column i) over the
// unfrozen flows and a flow's floor x_i ≥ w_i·t is the bound y_i ≥ 0.
// The LPs differ only in bounds, the total row's RHS and the
// objective:
//
//	first   max Σ x   t = t0, y_i ≥ 0, R = −Inf
//	floor   max t     t ≥ t0, y_i ≥ 0, R = opt − optTol
//
// with frozen flows fixed throughout. Freezing a flow takes
// w_i·(column i) out of t's column (AddColumn) and fixes column i at
// its x value (see fix). Only the first LP is solved cold.

// load builds the group's program and solves its first LP, max Σ x
// subject to rows·x ≤ 1 and x ≥ basic, cold, with t fixed at
// t0 = max basic_i/w_i and y ≥ 0: x_i ≥ w_i·t0 ≥ basic_i. Both
// callers set the floors proportional to the weights (w_i/Σ w_j·v_j
// in 2PA-C, w_i/denom in 2PA-D's local LPs), so basic_i = w_i·t0 and
// the floors are exactly the basic shares. When they fit every clique
// the clique rows' RHS stay nonnegative and the vacuous total row's
// slack is free, so the slack basis is feasible and phase 1 has no
// artificials; floors that do not fit flip a row's normalized sense,
// and phase 1 reports ErrInfeasible. It returns the optimal total and
// leaves the point in s.sol.
//
// The shares depend only on the weights' ratios, but t scales as 1/w
// and lp's tolerances are absolute, so both callers scale the weights
// first (scaleWeights). A weight that is not a normal float after
// that scaling fails with ErrWeightRange.
func (s *session) load(rows [][]float64, basic, weights []float64) (float64, error) {
	n := len(basic)
	for _, w := range weights {
		if !(w >= 0x1p-1022) {
			return 0, fmt.Errorf("%w: a weight is %g once the largest is scaled to [1, 2)", ErrWeightRange, w)
		}
	}
	s.rows, s.basic, s.weights = rows, basic, weights
	s.inT = slices.Grow(s.inT[:0], n)[:n]
	s.prob.Reset(n + 1)
	var wsum float64
	s.t0 = 0
	for i, b := range basic {
		s.inT[i] = true
		wsum += weights[i]
		s.t0 = max(s.t0, b/weights[i])
		if err := s.prob.SetObjectiveCoeff(i, 1); err != nil {
			return 0, err
		}
	}
	// Σ x = Σ y + (Σ w)·t over the unfrozen flows.
	if err := s.prob.SetObjectiveCoeff(n, wsum); err != nil {
		return 0, err
	}
	if err := s.prob.SetBounds(n, s.t0, s.t0); err != nil {
		return 0, err
	}
	buf := s.rowBuf(n + 1)
	for _, r := range rows {
		copy(buf, r)
		buf[n] = 0
		for i, a := range r {
			buf[n] += a * weights[i]
		}
		if err := s.prob.AddLE(buf, 1); err != nil {
			return 0, err
		}
	}
	for i := range basic {
		buf[i] = 1
	}
	buf[n] = wsum
	if err := s.prob.AddGE(buf, math.Inf(-1)); err != nil {
		return 0, err
	}
	if err := s.solver.SolveInto(&s.prob, &s.sol); err != nil {
		return 0, err
	}
	s.observe(&s.prob)
	return s.sol.Objective, nil
}

// rowBuf returns the session's row scratch with width zeroed entries.
func (s *session) rowBuf(width int) []float64 {
	s.buf = slices.Grow(s.buf[:0], width)[:width]
	clear(s.buf)
	return s.buf
}

// resolve re-solves the edited program p warm on solver and returns
// its objective.
func (s *session) resolve(solver *lp.Solver, p *lp.Problem) (float64, error) {
	if err := solver.ReoptimizeInto(p, &s.sol); err != nil {
		return 0, err
	}
	s.observe(p)
	return s.sol.Objective, nil
}

// observe hands the program p just solved to the session's observer,
// if it has one.
func (s *session) observe(p *lp.Problem) {
	if s.observer != nil {
		s.observer(p, &s.sol)
	}
}

// objective sets p's objective to Σ coef·x over the flows plus tc·t.
func (s *session) objective(p *lp.Problem, coef, tc float64) error {
	n := len(s.basic)
	for i := 0; i < n; i++ {
		if err := p.SetObjectiveCoeff(i, coef); err != nil {
			return err
		}
	}
	return p.SetObjectiveCoeff(n, tc)
}

// refineMaxMin computes the lexicographic weighted max-min fairest
// point among the optima of the loaded group's program, max Σ x_i
// subject to rows·x ≤ 1, x ≥ basic, whose optimal total opt load
// found. It repeatedly maximizes the smallest normalized share
// x_i/w_i among unfrozen flows, then freezes flows that cannot exceed
// that level, in the style of progressive filling.
//
// The floor LP's dual certifies the flows to freeze: a floor with a
// positive shadow price binds at every optimum of max t
// (complementary slackness), so its flow cannot rise above w_i·t*
// without lowering t* (see floor). Every round certifies a flow. t's
// column is Σ w_i·(column i) over the unfrozen flows and its objective
// coefficient is 1, so at an optimum the floors' shadow prices d_i ≥ 0
// meet Σ w_i·d_i ≥ 1; with the largest weight below 2 (scaleWeights),
// some d_i is at least 1/(2n), far above dualTol. A round may freeze
// any non-empty subset of its blocked flows (Radunović & Le Boudec,
// IEEE/ACM ToN 2007): a blocked flow the certificate misses is still
// blocked at the next round's level, which the frozen flows cannot
// lower, and is found there.
//
// Every round keeps the first round's total row Σ x ≥ opt − optTol.
// Each round freezes flows at one point that meets it, and fix keeps
// the point, so the next round's floor LP starts from a feasible
// point of the same row. A deferred blocked flow therefore finds the
// same level again, not one raised by fresh slack, and the refinement
// gives up at most optTol of the optimal total in all.
func (s *session) refineMaxMin(opt float64) ([]float64, error) {
	n := len(s.basic)
	frozen := make([]bool, n)
	value := make([]float64, n)
	for remaining := n; remaining > 0; {
		t, err := s.floor(frozen, opt)
		if err != nil {
			return nil, err
		}
		// Fixing t at t*, which the floor LP's point has, lets fix
		// edit t's column. A certified flow's floor is nonbasic at 0,
		// so s.point holds it at exactly w_i·t*, the value it has at
		// every optimum.
		if err := s.solver.SetBounds(&s.prob, n, t, t); err != nil {
			return nil, err
		}
		anyFrozen := false
		for i := 0; i < n; i++ {
			if !frozen[i] && s.blocking[i] && s.point[i] <= s.weights[i]*t+freezeTol {
				frozen[i], value[i] = true, s.point[i]
				remaining--
				anyFrozen = true
				if err := s.fix(i, value[i]); err != nil {
					return nil, err
				}
			}
		}
		if !anyFrozen {
			// Only duals off by more than 1/(2n) leave the certificate
			// empty; freeze everything at the consistent point to
			// guarantee progress.
			for i := 0; i < n; i++ {
				if !frozen[i] {
					frozen[i], value[i] = true, s.point[i]
					remaining--
				}
			}
		}
	}
	return value, nil
}

// fix freezes flow i at x_i = x. Its column, which stood for
// x_i − w_i·t, leaves t's column and stands for x_i, fixed at x; t
// must be fixed, so the point does not move. The edit comes before
// the pivots that follow: a fixed column goes stale in them (see
// lp.Solver), and t's edit would then have to recompute it.
func (s *session) fix(i int, x float64) error {
	s.inT[i] = false
	if err := s.solver.AddColumn(&s.prob, len(s.basic), i, -s.weights[i]); err != nil {
		return err
	}
	return s.solver.SetBounds(&s.prob, i, x, x)
}

// floor solves one round's floor LP: max t subject to rows·x ≤ 1,
// Σ x ≥ opt − optTol, x_i = value_i for frozen i and x_i ≥ w_i·t
// otherwise, with t ≥ t0 = max basic_i/w_i over the unfrozen flows.
// It returns t* and leaves the optimal point in s.point, the freeze
// target, and in s.blocking
// which unfrozen flows' floors are certified to bind at every
// optimum.
//
// x_i ≥ w_i·t ≥ w_i·t0 ≥ basic_i, so the floors imply the basic
// shares, and as basic_i = w_i·t0 (see load) the bound t ≥ t0 cuts off
// no point. The first round's floor LP starts at the first LP's
// optimum, which is feasible for it (t = t0, y ≥ 0, Σ x = opt), so
// only the primal simplex runs. A later round's starts at the point
// the last round froze its flows at, which is feasible for it too.
// TestFloorFormsAgree checks it against the row form, which writes
// every floor as a row and has no t0.
//
// y_i is the slack of flow i's floor, so its reduced cost is the
// floor's shadow price: a y_i with reduced cost above dualTol is 0 at
// every optimum, and the flow cannot rise above w_i·t* without
// lowering t*. This is the dual test of LP-based max-min fairness
// (Radunović & Le Boudec, IEEE/ACM ToN 2007).
func (s *session) floor(frozen []bool, opt float64) (float64, error) {
	n := len(s.basic)
	p := &s.prob
	if err := s.solver.SetBounds(p, n, s.t0, math.Inf(1)); err != nil {
		return 0, err
	}
	if err := s.solver.SetRHS(p, len(s.rows), opt-optTol); err != nil {
		return 0, err
	}
	if err := s.objective(p, 0, 1); err != nil {
		return 0, err
	}
	t, err := s.resolve(s.solver, p)
	if err != nil {
		return 0, err
	}
	// Read the point and the certified floors before fix edits the
	// tableau.
	s.keepPoint(t)
	s.blocking = s.blocking[:0]
	for i := 0; i < n; i++ {
		s.blocking = append(s.blocking, s.inT[i] && !frozen[i] && s.solver.ReducedCost(i) > dualTol)
	}
	return t, nil
}

// keepPoint copies the flows' values at the point just solved, with t
// at t, into s.point.
func (s *session) keepPoint(t float64) {
	s.point = s.point[:0]
	for i, y := range s.sol.X[:len(s.basic)] {
		if s.inT[i] {
			y += s.weights[i] * t
		}
		s.point = append(s.point, y)
	}
}
