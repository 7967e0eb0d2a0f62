package mobility

// Byte-identity of twin-screened sweeps: when Config.Net.Twin screens
// epochs, the epochs that still run the packet simulator must be
// byte-identical to the same epochs of an unscreened run — screening
// may skip work, never change it. The screened epochs solve their
// first-phase shares through the same allocator seam RunWith uses
// (netsim.SolveShares), so allocator and share-cache state evolve
// identically either way; this test pins that equivalence.

import (
	"reflect"
	"testing"

	"e2efair/internal/netsim"
	"e2efair/internal/sim"
)

// slowCfg is a near-static sweep with spare channel capacity: two
// short flows in a 3×4 grid-ish area moving at a crawl, so the twin is
// confident on nearly every epoch and the drift-control cadence alone
// decides which epochs simulate.
func slowCfg(twin *netsim.TwinConfig) Config {
	return Config{
		Nodes: 6,
		Waypoint: WaypointConfig{
			Width: 400, Height: 100,
			MinSpeed: 0.1, MaxSpeed: 0.5,
		},
		Flows: []FlowSpec{
			{ID: "FA", Src: 0, Dst: 1},
			{ID: "FB", Src: 2, Dst: 3},
		},
		Protocol: netsim.Protocol2PAC,
		Epoch:    1 * sim.Second,
		Duration: 12 * sim.Second,
		Seed:     7,
		// 60 pkt/s leaves the shared clique (three subflows at share
		// 1/3, service ≈106 pkt/s each) at ~0.56 utilization and well
		// clear of the offered/service crossover, so the twin's
		// estimates pass the confidence gate.
		Net: netsim.Config{Twin: twin, PacketsPerS: 60},
	}
}

func TestTwinScreenedSweepByteIdenticalSimulatedEpochs(t *testing.T) {
	t.Run("incremental", func(t *testing.T) {
		ref, err := Run(slowCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		scr, err := Run(slowCfg(&netsim.TwinConfig{Every: 4}))
		if err != nil {
			t.Fatal(err)
		}

		if scr.EpochsScreened == 0 {
			t.Fatalf("no epoch was screened (min confidence %.2f); want the twin to short-circuit most epochs", scr.TwinMinConfidence)
		}
		if len(scr.Epochs) != len(ref.Epochs) {
			t.Fatalf("epoch count diverged: screened %d vs plain %d", len(scr.Epochs), len(ref.Epochs))
		}
		simulated := 0
		for i := range scr.Epochs {
			if scr.Epochs[i].Screened {
				continue
			}
			simulated++
			if !reflect.DeepEqual(scr.Epochs[i], ref.Epochs[i]) {
				t.Errorf("simulated epoch %d diverged under screening:\nscreened: %+v\nplain:    %+v", i, scr.Epochs[i], ref.Epochs[i])
			}
		}
		if simulated == 0 {
			t.Fatal("every epoch was screened; the drift-control cadence must force simulated epochs")
		}
		if scr.EpochsSimulated != simulated {
			t.Errorf("EpochsSimulated = %d, want %d", scr.EpochsSimulated, simulated)
		}
		// Epoch 0 must always simulate (cadence anchor).
		if scr.Epochs[0].Screened {
			t.Error("epoch 0 was screened; it must anchor the cadence with a real run")
		}
		t.Logf("screened %d / simulated %d epochs, min twin confidence %.2f",
			scr.EpochsScreened, scr.EpochsSimulated, scr.TwinMinConfidence)
	})
}

// TestTwinScreeningDeclinesUnscheduled pins the confidence gate: plain
// 802.11 has no installed shares, the twin's clique-fair fallback is
// never confident, and every epoch must fall back to a real simulation
// — identical to an unscreened run in every field.
func TestTwinScreeningDeclinesUnscheduled(t *testing.T) {
	plain := slowCfg(nil)
	plain.Protocol = netsim.Protocol80211
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	screened := slowCfg(&netsim.TwinConfig{Every: 4})
	screened.Protocol = netsim.Protocol80211
	scr, err := Run(screened)
	if err != nil {
		t.Fatal(err)
	}
	if scr.EpochsScreened != 0 {
		t.Fatalf("screened %d epochs on 802.11; clique-fair estimates must never be confident", scr.EpochsScreened)
	}
	scr.EpochsSimulated = ref.EpochsSimulated // field is new accounting, not run output
	if !reflect.DeepEqual(scr.Epochs, ref.Epochs) {
		t.Error("802.11 run with declined screening diverged from the unscreened run")
	}
}
