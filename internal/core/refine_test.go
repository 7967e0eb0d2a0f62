package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
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
// Both refinements may give up optTol of the total in every round (the
// floor LP's Σx ≥ opt − optTol), so neither stays within optTol of the
// optimum on the dense shapes; both also overshoot a clique's capacity
// by up to ~2e-9 in summation roundoff, hence feasTol.
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

// TestRefinementPaperInstancesMatchOracle: on every worked example of
// the paper the refinement's shares are bit-identical to the oracle's.
func TestRefinementPaperInstancesMatchOracle(t *testing.T) {
	for _, build := range []func() (*scenario.Scenario, error){
		scenario.Figure1, scenario.Figure2Single, scenario.Figure2Multi,
		scenario.Figure4, scenario.Figure6, scenario.Pentagon,
	} {
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
