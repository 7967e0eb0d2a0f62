package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/routing"
	"e2efair/internal/scenario"
	"e2efair/internal/topology"
)

// denseSessionsInstance is the dense serving shape drawn per seed: a
// connected 100-node scenario.Random component with 40 unit-weight
// shortest-path flows, plus 1–3 sessions on fresh 3–4-hop paths with
// weights 1–3, as the serving engine sees arrivals.
func denseSessionsInstance(seed int64) (*core.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	sc, err := scenario.Random(scenario.RandomConfig{
		Nodes: 100, Flows: 40, Width: 1300, Height: 1300, MaxHops: 6,
	}, rng)
	if err != nil {
		return nil, err
	}
	flows := append([]*flow.Flow{}, sc.Flows.Flows()...)
	tbl := routing.BuildTable(sc.Topo)
	sessions := 1 + rng.Intn(3)
	for attempt := 0; len(flows) < 40+sessions && attempt < 10000; attempt++ {
		src := topology.NodeID(rng.Intn(sc.Topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(sc.Topo.NumNodes()))
		path, err := tbl.Route(src, dst)
		if err != nil || len(path) < 4 || len(path) > 5 {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("S%d", len(flows))), float64(1+rng.Intn(3)), path)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	set, err := flow.NewSet(flows...)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(sc.Topo, set)
}

// TestRefinementMatchesOracle runs the refinement on 200 dense
// session shapes and 200 random abstract instances against the
// probe-only oracle. Every result must be clique-feasible, keep each
// flow's basic share, lose no more of the unrefined optimal total than
// the oracle does plus optTol, and sit within 1e-5 of the oracle per
// flow. Exact agreement is not required: the oracle's probes relax the
// round's floors by optTol, which can leave a flow the duals certify
// as blocking unfrozen for one more round.
//
// Both refinements keep the first round's total row Σx ≥ opt − optTol
// in every round, so each gives up at most optTol of the optimal total
// in all; both also overshoot a clique's capacity by up to ~2e-9 in
// summation roundoff, hence feasTol.
func TestRefinementMatchesOracle(t *testing.T) {
	const (
		seeds   = 200
		feasTol = 1e-8
		optTol  = 1e-7 // the refinement's slack on the optimal total
		flowTol = 1e-5
	)
	differ, total := 0, 0
	check := func(name string, inst *core.Instance) {
		t.Helper()
		total++
		got, err := core.CentralizedAllocate(inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			t.Fatalf("%s: refine: %v", name, err)
		}
		want, err := core.CentralizedOracle(inst)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		plain, err := core.CentralizedAllocate(inst, core.CentralizedOptions{})
		if err != nil {
			t.Fatalf("%s: unrefined: %v", name, err)
		}
		for _, c := range inst.Cliques {
			var load float64
			for _, v := range c {
				load += got[inst.Graph.Subflow(v).ID.Flow]
			}
			if load > 1+feasTol {
				t.Errorf("%s: clique load %.12g > 1", name, load)
			}
		}
		for id, b := range core.BasicShares(inst) {
			if got[id] < b-feasTol {
				t.Errorf("%s: flow %s share %.12g below basic %.12g", name, id, got[id], b)
			}
		}
		opt := plain.TotalEffectiveThroughput()
		if d, dOracle := opt-got.TotalEffectiveThroughput(), opt-want.TotalEffectiveThroughput(); math.Abs(d) > math.Abs(dOracle)+optTol {
			t.Errorf("%s: refined total off the optimum by %g, oracle by %g", name, d, dOracle)
		}
		same := true
		for id, w := range want {
			if got[id] != w {
				same = false
			}
			if d := math.Abs(got[id] - w); d > flowTol {
				t.Errorf("%s: flow %s share %.12g, oracle %.12g (|Δ| = %g)", name, id, got[id], w, d)
			}
		}
		if !same {
			differ++
		}
	}
	for seed := int64(0); seed < seeds; seed++ {
		inst, err := denseSessionsInstance(seed)
		if err != nil {
			t.Fatalf("dense seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("dense seed %d", seed), inst)
		abs, err := randomAbstractInstance(seed)
		if err != nil {
			t.Fatalf("abstract seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("abstract seed %d", seed), abs)
	}
	t.Logf("%d of %d instances differ from the oracle in some bit", differ, total)
}

// TestWarmLPsMatchCold re-solves every LP of the refinement, which
// runs each one warm from the tableau the previous one left, cold on a
// fresh solver, on the 400 instances of TestRefinementMatchesOracle.
// Each warm optimum must be the program's optimum: the largest gap
// between the two objectives is logged and pinned at maxGap, the
// largest gap seen (7.8e-13, over 3,469 LPs) rounded up to the next
// power of ten.
func TestWarmLPsMatchCold(t *testing.T) {
	const maxGap = 1e-12
	var worst float64
	lps := 0
	check := func(name string, inst *core.Instance) {
		t.Helper()
		_, err := core.CentralizedObserved(inst, func(p *lp.Problem, warm *lp.Solution) {
			lps++
			cold, err := lp.NewSolver().Solve(p)
			if err != nil {
				t.Fatalf("%s: cold re-solve of a warm-solved LP: %v", name, err)
			}
			worst = max(worst, math.Abs(warm.Objective-cold.Objective))
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		inst, err := denseSessionsInstance(seed)
		if err != nil {
			t.Fatalf("dense seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("dense seed %d", seed), inst)
		abs, err := randomAbstractInstance(seed)
		if err != nil {
			t.Fatalf("abstract seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("abstract seed %d", seed), abs)
	}
	t.Logf("largest |warm − cold| objective gap over %d LPs: %g", lps, worst)
	if worst > maxGap {
		t.Errorf("largest objective gap %g exceeds %g", worst, maxGap)
	}
}

// paperScenarios builds the paper's worked examples.
var paperScenarios = []func() (*scenario.Scenario, error){
	scenario.Figure1, scenario.Figure2Single, scenario.Figure2Multi,
	scenario.Figure4, scenario.Figure6, scenario.Pentagon,
}

// TestRefinementPaperInstancesMatchOracle: on every worked example of
// the paper the refinement's shares are bit-identical to the oracle's.
func TestRefinementPaperInstancesMatchOracle(t *testing.T) {
	for _, build := range paperScenarios {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		want, err := core.CentralizedOracle(sc.Inst)
		if err != nil {
			t.Fatalf("%s: oracle: %v", sc.Name, err)
		}
		for id, w := range want {
			if got[id] != w {
				t.Errorf("%s: flow %s share %v, oracle %v", sc.Name, id, got[id], w)
			}
		}
	}
}

// TestFloorFormsAgree checks the refinement's substituted floor LP
// against the row form it replaced (refine_floorrows_test.go) on the
// 400 instances of TestRefinementMatchesOracle and the paper's worked
// examples. The substituted floor LP has one row more than the
// group's clique rows, and in the first round its t* is within
// levelTol of the row form's. Refined with each form, every flow's
// share is within flowTol of the other's. The row form rebuilds every
// LP and solves it cold, while the refinement edits one tableau, so
// the two reach different vertices where a round's floor LP has
// alternative optima, and their certificates can differ; a blocked
// flow one form certifies a round later freezes at the same level.
//
// flowTol is the largest |Δ| seen (3.2e-8, dense seed 10) rounded up
// to the next power of ten. It was 1e-8 while every round re-derived
// the total with fresh slack. Under the one total row, a cold solve of
// the row form may end a floor row up to lp's pivot tolerance outside
// its bound (dense seed 10's first round leaves a flow 2.7e-9 below its
// floor with a zero dual, so the row form freezes it a round later and
// lower), and the later rounds carry that on. An exact-oracle scan
// (exact_test.go) of 2,000 instances from this test's generators,
// seeds 0–999, put |Δ| above 1e-8 on 28 dense ones (largest 8.3e-8,
// seed 575); on every one of them the refinement's shares are closer
// to the exact point than they were under fresh slack per round. The
// row form's t* is also checked in every round to be at least
// t0 = max basic_i/w_i, the precondition of the substitution
// (CentralizedRowFloor).
//
// levelTol is lp's pivot tolerance, not 1e-12: on 150 of the dense
// groups the row form's t* ends up to 3.5e-10 above the substituted
// form's. The row form is the inexact one. With lp's tolerance
// lowered from 1e-9 to 1e-12, the row form's t* moves onto the
// substituted form's, within 4e-17 on the six seeds tried, while the
// substituted form's t* does not move.
func TestFloorFormsAgree(t *testing.T) {
	const (
		levelTol = 1e-9
		flowTol  = 1e-7
	)
	var worst, worstLevel float64
	check := func(name string, inst *core.Instance) {
		t.Helper()
		rounds, err := core.FirstFloorRounds(inst)
		if err != nil {
			t.Fatalf("%s: first floor round: %v", name, err)
		}
		for gi, r := range rounds {
			if r.Rows != r.Cliques+1 {
				t.Errorf("%s: group %d: floor LP has %d rows, want %d clique rows + 1", name, gi, r.Rows, r.Cliques)
			}
			d := math.Abs(r.T - r.RowT)
			worstLevel = max(worstLevel, d)
			if d > levelTol {
				t.Errorf("%s: group %d: first-round t* %.17g, row form %.17g (|Δ| = %g)", name, gi, r.T, r.RowT, d)
			}
		}
		got, err := core.CentralizedAllocate(inst, core.CentralizedOptions{Refine: true})
		if err != nil {
			t.Fatalf("%s: refine: %v", name, err)
		}
		want, err := core.CentralizedRowFloor(inst)
		if err != nil {
			t.Fatalf("%s: row-form refine: %v", name, err)
		}
		for id, w := range want {
			d := math.Abs(got[id] - w)
			worst = max(worst, d)
			if d > flowTol {
				t.Errorf("%s: flow %s share %.12g, row form %.12g (|Δ| = %g)", name, id, got[id], w, d)
			}
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		inst, err := denseSessionsInstance(seed)
		if err != nil {
			t.Fatalf("dense seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("dense seed %d", seed), inst)
		abs, err := randomAbstractInstance(seed)
		if err != nil {
			t.Fatalf("abstract seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("abstract seed %d", seed), abs)
	}
	for _, build := range paperScenarios {
		sc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		check(sc.Name, sc.Inst)
	}
	t.Logf("largest |Δ| between the floor forms: %g in first-round t*, %g per flow", worstLevel, worst)
}
