package mobility_test

import (
	"fmt"
	"reflect"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/sim"
)

func mobileCfg() mobility.Config {
	return mobility.Config{
		Nodes:    22,
		Waypoint: wpCfg(),
		Flows: []mobility.FlowSpec{
			{ID: "F1", Src: 0, Dst: 10},
			{ID: "F2", Src: 5, Dst: 15},
			{ID: "F3", Src: 2, Dst: 19, Weight: 2},
		},
		Protocol: netsim.Protocol2PAC,
		Epoch:    5 * sim.Second,
		Duration: 40 * sim.Second,
		Seed:     17,
	}
}

// TestRunDeterministic pins Run and the rebuild oracle: two runs of
// the same config must agree on every field of every epoch.
func TestRunDeterministic(t *testing.T) {
	for name, run := range map[string]func(mobility.Config) (*mobility.Result, error){
		"incremental": mobility.Run, "rebuild": mobility.RunRebuild,
	} {
		a, err := run(mobileCfg())
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(mobileCfg())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identical runs diverged", name)
		}
	}
}

// TestIncrementalMatchesRebuildInvariants cross-checks the incremental
// pipeline against the retained rebuild baseline. Routability is a
// function of adjacency alone, so Routed/Unreachable must agree
// epoch-for-epoch even after the two pipelines' routes diverge (the
// incremental one keeps valid routes, the baseline re-shortests). The
// first epoch has no previous routes to keep, so it must match the
// baseline exactly, packet counts included.
func TestIncrementalMatchesRebuildInvariants(t *testing.T) {
	inc, err := mobility.Run(mobileCfg())
	if err != nil {
		t.Fatal(err)
	}
	reb, err := mobility.RunRebuild(mobileCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Epochs) != len(reb.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(inc.Epochs), len(reb.Epochs))
	}
	if inc.Unreachable != reb.Unreachable {
		t.Errorf("Unreachable: incremental %d, rebuild %d", inc.Unreachable, reb.Unreachable)
	}
	for i := range inc.Epochs {
		if inc.Epochs[i].Start != reb.Epochs[i].Start {
			t.Fatalf("epoch %d start differs", i)
		}
		if inc.Epochs[i].Routed != reb.Epochs[i].Routed {
			t.Errorf("epoch %d: Routed %d vs %d", i, inc.Epochs[i].Routed, reb.Epochs[i].Routed)
		}
	}
	first, firstReb := inc.Epochs[0], reb.Epochs[0]
	if first.Delivered != firstReb.Delivered || first.Lost != firstReb.Lost ||
		!reflect.DeepEqual(first.Allocation, firstReb.Allocation) {
		t.Errorf("first epoch differs: incremental %+v, rebuild %+v", first, firstReb)
	}
}

// TestIncrementalNearStaticMatchesRebuild: when nodes barely move the
// adjacency never changes, every route survives, and the two pipelines
// must produce identical results end to end — the strongest statement
// that topology/instance reuse does not alter behavior.
func TestIncrementalNearStaticMatchesRebuild(t *testing.T) {
	base := mobileCfg()
	base.Waypoint.MinSpeed, base.Waypoint.MaxSpeed = 0.001, 0.002
	base.Waypoint.MaxPause = 0
	inc, err := mobility.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	reb, err := mobility.RunRebuild(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc, reb) {
		t.Fatalf("near-static incremental run differs from rebuild:\nincremental %+v\nrebuild %+v", inc, reb)
	}
}

// TestRebuildModeBasics keeps the rebuild oracle covered by the same
// smoke assertions TestMobileRun applies to Run.
func TestRebuildModeBasics(t *testing.T) {
	res, err := mobility.RunRebuild(mobileCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 8 {
		t.Fatalf("epochs = %d, want 8", len(res.Epochs))
	}
	var delivered int64
	for _, ep := range res.Epochs {
		delivered += ep.Delivered
	}
	if delivered != res.TotalDelivered {
		t.Errorf("epoch sum %d != total %d", delivered, res.TotalDelivered)
	}
}

// benchmarkMobilityEpoch runs a whole mobile simulation sized so the
// epoch pipeline (topology, routing, instance construction) dominates
// over the deliberately tiny packet phase, and reports per-epoch cost.
func benchmarkMobilityEpoch(b *testing.B, run func(mobility.Config) (*mobility.Result, error)) {
	flows := make([]mobility.FlowSpec, 10)
	for i := range flows {
		flows[i] = mobility.FlowSpec{
			ID:  flow.ID(fmt.Sprintf("F%d", i+1)),
			Src: i * 8, Dst: 75 + i*7,
		}
	}
	cfg := mobility.Config{
		Nodes: 150,
		Waypoint: mobility.WaypointConfig{
			Width: 1800, Height: 1800,
			// Slow enough that most epoch boundaries leave the adjacency
			// unchanged — the regime the incremental pipeline targets.
			MinSpeed: 0.01, MaxSpeed: 0.1,
		},
		Flows:    flows,
		Protocol: netsim.Protocol2PAC,
		Epoch:    2 * sim.Second,
		Duration: 60 * sim.Second,
		Seed:     5,
		Net:      netsim.Config{PacketsPerS: 1},
	}
	epochs := int(cfg.Duration / cfg.Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Epochs) != epochs {
			b.Fatalf("epochs = %d", len(res.Epochs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*epochs)/1e6, "ms/epoch")
}

func BenchmarkMobilityEpoch(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchmarkMobilityEpoch(b, mobility.Run) })
	b.Run("rebuild", func(b *testing.B) { benchmarkMobilityEpoch(b, mobility.RunRebuild) })
}
