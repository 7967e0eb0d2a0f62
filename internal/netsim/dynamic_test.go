package netsim_test

import (
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// TestDynamicReallocation stops F1 mid-run on the Fig. 1 topology:
// alone, F2's share grows from B/4 to B/2, so its windowed throughput
// should roughly double after the churn event.
func TestDynamicReallocation(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	const dur = 60 * sim.Second
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    dur,
		Seed:        1,
		SampleEvery: 5 * sim.Second,
	}, []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 30 * sim.Second, Stop: []flow.ID{"F1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocations != 2 {
		t.Errorf("reallocations = %d, want 2", res.Reallocations)
	}
	// Final shares: F2 alone gets B/2 per hop.
	if got := res.FinalShares[sub("F2", 0)]; got < 0.49 || got > 0.51 {
		t.Errorf("final F2 share = %g, want 0.5", got)
	}
	// Windowed throughput of F2: compare an early window (with F1
	// active, share 1/4) against a late one (alone, share 1/2 —
	// though F2 then drains only at its 200 pkt/s CBR limit, still
	// well above the contended rate).
	wins := res.Series.Windows("F2")
	if len(wins) < 10 {
		t.Fatalf("series too short: %d windows", len(wins))
	}
	early := float64(wins[3] + wins[4]) // 15–25 s
	late := float64(wins[9] + wins[10]) // 45–55 s
	if late < 1.3*early {
		t.Errorf("F2 windowed throughput should grow after F1 stops: early %g late %g", early, late)
	}
	// F1 stops delivering after churn.
	f1 := res.Series.Windows("F1")
	if f1[len(f1)-1] != 0 {
		t.Errorf("F1 still delivering after stop: %v", f1)
	}
}

func TestDynamicUnknownFlow(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	_, err = netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: sim.Second,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F9"}}})
	if err == nil {
		t.Error("unknown flow in event should fail")
	}
}

func TestDynamicMatchesStaticWhenNoChurn(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: 20 * sim.Second, Seed: 3,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F1", "F2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalEndToEnd() == 0 {
		t.Fatal("nothing delivered")
	}
	// The throughput ratio should match the static allocation (≈2:1).
	f1 := float64(res.Stats.EndToEnd("F1"))
	f2 := float64(res.Stats.EndToEnd("F2"))
	if r := f1 / f2; r < 1.4 || r > 2.7 {
		t.Errorf("dynamic ratio %.2f, want ≈2", r)
	}

	// A stop followed by a restart before the source's next emission
	// is no churn either: F1 alone at 20 pkt/s for 20 s must deliver
	// its ~400 packets, never a second emission chain on top.
	for name, events := range map[string][]netsim.FlowEvent{
		"always on": {{At: 0, Start: []flow.ID{"F1"}}},
		"stop and start in one event": {
			{At: 0, Start: []flow.ID{"F1"}},
			{At: 10 * sim.Second, Stop: []flow.ID{"F1"}, Start: []flow.ID{"F1"}},
		},
		"restart before the pending emit": {
			{At: 0, Start: []flow.ID{"F1"}},
			{At: 9990 * sim.Millisecond, Stop: []flow.ID{"F1"}},
			{At: 9995 * sim.Millisecond, Start: []flow.ID{"F1"}},
		},
	} {
		res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: 20 * sim.Second, Seed: 1, PacketsPerS: 20,
		}, events)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.EndToEnd("F1"); got < 398 || got > 402 {
			t.Errorf("%s: F1 delivered %d, want ≈400", name, got)
		}
	}
}

// TestDynamicDFSReallocation runs TestDynamicReallocation's schedule
// on the DFS stack: churn shares must reach the DFS schedulers too.
// Once F1 stops, F2's solo share of B/2 lifts its 5 s windows to
// ~829 packets; with the old B/4 weights left in place they stay
// near ~791.
func TestDynamicDFSReallocation(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol:    netsim.ProtocolDFS,
		Duration:    60 * sim.Second,
		Seed:        1,
		SampleEvery: 5 * sim.Second,
	}, []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 30 * sim.Second, Stop: []flow.ID{"F1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocations != 2 {
		t.Errorf("reallocations = %d, want 2", res.Reallocations)
	}
	wins := res.Series.Windows("F2")
	if len(wins) != 12 {
		t.Fatalf("series has %d windows, want 12", len(wins))
	}
	var late int64
	for _, w := range wins[7:] { // 35–60 s, after the transition window
		late += w
	}
	if mean := float64(late) / 5; mean < 810 {
		t.Errorf("F2 post-stop windows average %.1f packets, want > 810 under its solo share: %v", mean, wins)
	}
}

// TestDynamicChurnDeterministic oscillates F1 off and on so the same
// active-flow sets recur: later reallocations update the run's live
// instance and copy cached shares for group LPs solved earlier. Two identical
// runs must agree exactly, and the post-churn shares must match a
// fresh static computation of the same active set.
func TestDynamicChurnDeterministic(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 5 * sim.Second, Stop: []flow.ID{"F1"}},
		{At: 10 * sim.Second, Start: []flow.ID{"F1"}},
		{At: 15 * sim.Second, Stop: []flow.ID{"F1"}},
		{At: 20 * sim.Second, Start: []flow.ID{"F1"}},
	}
	for _, p := range []netsim.Protocol{netsim.Protocol2PAC, netsim.Protocol2PAD} {
		cfg := netsim.Config{Protocol: p, Duration: 25 * sim.Second, Seed: 7}
		a, err := netsim.RunDynamic(sc.Inst, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		b, err := netsim.RunDynamic(sc.Inst, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		if a.Reallocations != 5 || b.Reallocations != 5 {
			t.Errorf("%v: reallocations = %d, %d, want 5", p, a.Reallocations, b.Reallocations)
		}
		for id, share := range a.FinalShares {
			if b.FinalShares[id] != share {
				t.Errorf("%v: run-to-run final share mismatch for %v: %g vs %g",
					p, id, share, b.FinalShares[id])
			}
		}
		if a.Stats.TotalEndToEnd() != b.Stats.TotalEndToEnd() {
			t.Errorf("%v: delivered totals differ: %d vs %d",
				p, a.Stats.TotalEndToEnd(), b.Stats.TotalEndToEnd())
		}
		// Final active set is {F1, F2}: both flows hold their static
		// two-flow shares (B/2 and B/4) again after the last rejoin.
		if got := a.FinalShares[sub("F1", 0)]; got < 0.49 || got > 0.51 {
			t.Errorf("%v: final F1 share = %g, want 0.5", p, got)
		}
		if got := a.FinalShares[sub("F2", 0)]; got < 0.24 || got > 0.26 {
			t.Errorf("%v: final F2 share = %g, want 0.25", p, got)
		}
	}
}

func TestDynamic80211NoReallocation(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol80211, Duration: 5 * sim.Second, Seed: 1,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F1", "F2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocations != 0 {
		t.Errorf("802.11 performed %d reallocations", res.Reallocations)
	}
	if res.Stats.TotalEndToEnd() == 0 {
		t.Error("nothing delivered")
	}
}
