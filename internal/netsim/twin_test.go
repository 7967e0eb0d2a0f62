package netsim_test

// Cross-check oracle for the analytical twin: on the same two golden
// scenarios and five protocol stacks pinned by determinism_test.go,
// the twin's closed-form predictions must stay within calibrated
// tolerance bands of the simulated throughput and loss. The bands are
// documented in DESIGN.md §9 and asserted here; CI runs this test in
// the twin-crosscheck job so any datapath or model change that drifts
// the two apart is caught immediately.

import (
	"math"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// Calibrated divergence tolerances (DESIGN.md §9). The twin is a
// fluid-flow model: it ignores collision overhead, backoff variance
// and queue dynamics, so per-flow error is widest on stacks whose
// schedulers only approximately enforce shares (DFS) and on the
// unscheduled 802.11 MAC, where per-hop unfairness — the paper's
// motivating pathology — makes per-flow prediction meaningless and
// only the aggregate is checked.
// Measured on the goldens (10 s, seed 1): scheduled non-DFS totals
// err up to 0.254 (fig1 2PA-C/D, a fully saturated clique — flagged
// unconfident at 0.42), per-flow up to 0.434; 802.11/DFS totals up to
// 0.430; scheduled non-DFS loss-ratio |Δ| up to 0.196. The bands add
// ~20% headroom over the worst measurement. Loss ratio is not
// asserted for 802.11/DFS: their in-flight loss is driven by the
// per-hop unfairness collapse the fluid model cannot see (sim loss
// ratios above 1.0 on fig1).
const (
	twinTotalTolScheduled = 0.30 // |pred−sim|/sim on total end-to-end packets
	twinTotalTolLoose     = 0.50 // 802.11 and DFS aggregates
	twinPerFlowTol        = 0.50 // scheduled non-DFS stacks, per-flow end-to-end
	twinLossRatioTol      = 0.25 // absolute |Δ| loss ratio, scheduled non-DFS only
)

func twinRelErr(pred, sim float64) float64 {
	if sim == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-sim) / sim
}

// TestTwinGoldenCrossCheck prices every golden (scenario, protocol)
// pair with the twin and compares against the simulated counts.
func TestTwinGoldenCrossCheck(t *testing.T) {
	scens := map[string]func() (*scenario.Scenario, error){
		"fig1": scenario.Figure1,
		"fig6": scenario.Figure6,
	}
	for sname, build := range scens {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", sname, err)
		}
		for _, proto := range allProtocols {
			t.Run(sname+"/"+proto.String(), func(t *testing.T) {
				cfg := netsim.Config{Protocol: proto, Duration: goldenDuration, Seed: 1}
				run, err := netsim.Run(s.Inst, cfg)
				if err != nil {
					t.Fatal(err)
				}
				est, err := netsim.TwinEstimate(s.Inst, cfg, run.Shares)
				if err != nil {
					t.Fatal(err)
				}

				scheduled := run.Shares != nil
				loose := !scheduled || proto == netsim.ProtocolDFS
				totalTol := twinTotalTolScheduled
				if loose {
					totalTol = twinTotalTolLoose
				}

				simTotal := float64(run.Stats.TotalEndToEnd())
				if e := twinRelErr(est.TotalPkt, simTotal); e > totalTol {
					t.Errorf("total end-to-end: twin %.0f vs sim %.0f (rel err %.3f > %.2f)",
						est.TotalPkt, simTotal, e, totalTol)
				} else {
					t.Logf("total: twin %.0f sim %.0f relErr %.3f", est.TotalPkt, simTotal, e)
				}

				if scheduled && proto != netsim.ProtocolDFS {
					for _, fe := range est.Flows {
						simF := float64(run.Stats.EndToEnd(fe.ID))
						if e := twinRelErr(fe.Packets, simF); e > twinPerFlowTol {
							t.Errorf("flow %s: twin %.0f vs sim %.0f (rel err %.3f > %.2f)",
								fe.ID, fe.Packets, simF, e, twinPerFlowTol)
						} else {
							t.Logf("flow %s: twin %.0f sim %.0f relErr %.3f", fe.ID, fe.Packets, simF, e)
						}
					}
				}

				if !loose {
					simLoss := run.Stats.LossRatio()
					if d := math.Abs(est.LossRatio - simLoss); d > twinLossRatioTol {
						t.Errorf("loss ratio: twin %.4f vs sim %.4f (|Δ| %.4f > %.2f)",
							est.LossRatio, simLoss, d, twinLossRatioTol)
					} else {
						t.Logf("loss ratio: twin %.4f sim %.4f", est.LossRatio, simLoss)
					}
				}

				if !scheduled && est.Confident {
					t.Errorf("802.11 estimate claims confidence %.2f (Confident=true); clique-fair fallback must be unconfident", est.Confidence)
				}
				if scheduled && proto != netsim.ProtocolDFS && !est.Confident {
					t.Logf("note: unconfident on scheduled stack: %v (confidence %.2f)", est.Reasons, est.Confidence)
				}
			})
		}
	}
}

// TestRunDynamicScreeningDeclines pins that churn runs are never
// screened: Config.Twin screens mobility epochs only, so a
// twin-configured RunDynamic must simulate and return a byte-identical
// result to the twin-disabled run.
func TestRunDynamicScreeningDeclines(t *testing.T) {
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 4 * sim.Second, Stop: []flow.ID{"F1"}},
	}
	base := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: 8 * sim.Second, Seed: 1}
	ref, err := netsim.RunDynamic(instOf(t, s), base, events)
	if err != nil {
		t.Fatal(err)
	}
	twinCfg := base
	twinCfg.Twin = &netsim.TwinConfig{}
	scr, err := netsim.RunDynamic(instOf(t, s), twinCfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if renderRun(s, &scr.Result) != renderRun(s, &ref.Result) {
		t.Errorf("twin config changed the simulated run:\ntwin:  %s\nplain: %s",
			renderRun(s, &scr.Result), renderRun(s, &ref.Result))
	}
}

// instOf rebuilds a scenario's instance fresh so cached state in one
// run cannot leak into the next.
func instOf(t *testing.T, s *scenario.Scenario) *core.Instance {
	t.Helper()
	inst, err := core.NewInstance(s.Topo, s.Flows)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
