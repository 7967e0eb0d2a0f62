package netsim_test

// Sharded/single equivalence suite: the component-sharded simulator
// must reproduce the single-engine run byte for byte — every subflow
// count, drop, collision, latency sample, series window, and airtime
// total — regardless of worker count or shard assignment. The tests
// here pin that across the protocol stacks, a 200-seed property sweep,
// the resilient and dynamic paths, and a node-ID permutation that
// checks the per-node RNG scheme directly.

import (
	"fmt"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// renderDeep flattens every observable of a run — per-subflow and
// end-to-end counts, drops, collisions, airtime totals and per-node
// occupancy, per-flow latency distributions, and throughput series —
// into one canonical string for wholesale comparison.
func renderDeep(s *scenario.Scenario, r *netsim.Result) string {
	out := renderRun(s, r)
	if a := r.Airtime; a != nil {
		out += fmt.Sprintf("\nair: tx=%d coll=%d exch=%d collN=%d per-node={", a.TxTime, a.CollisionTime, a.Exchanges, a.Collisions)
		for i := 0; i < s.Topo.NumNodes(); i++ {
			if t, ok := a.PerNodeTx[topology.NodeID(i)]; ok {
				out += fmt.Sprintf("%s:%d ", s.Topo.Name(topology.NodeID(i)), t)
			}
		}
		out += "}"
	}
	if l := r.Latency; l != nil {
		out += "\nlatency:"
		for _, f := range s.Flows.Flows() {
			id := f.ID()
			p50, _ := l.Quantile(id, 0.5)
			p99, _ := l.Quantile(id, 0.99)
			mean, _ := l.Mean(id)
			out += fmt.Sprintf(" %s:{n=%d mean=%d p50=%d p99=%d}", id, l.Count(id), mean, p50, p99)
		}
	}
	if sr := r.Series; sr != nil {
		out += fmt.Sprintf("\nseries: times=%v", sr.Times())
		for _, f := range s.Flows.Flows() {
			out += fmt.Sprintf(" %s:%v", f.ID(), sr.Windows(f.ID()))
		}
	}
	return out
}

// tiled builds a c-copy tiling of Figure 6 — c disjoint radio
// components with nine flows each.
func tiledFig6(t testing.TB, c int) *scenario.Scenario {
	t.Helper()
	base, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Tiled(base, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tiledFig1(t testing.TB, c int) *scenario.Scenario {
	t.Helper()
	base, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Tiled(base, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedEquivalenceTiled runs a three-component tiling of
// Figure 6 under every protocol stack and demands the sharded result
// equal the single-engine result on every observable, at both default
// and 8-way worker pools.
func TestShardedEquivalenceTiled(t *testing.T) {
	s := tiledFig6(t, 3)
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{
				Protocol:    p,
				Duration:    3 * sim.Second,
				Seed:        3,
				SampleEvery: sim.Second,
			}
			single, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderDeep(s, single)
			for _, workers := range []int{0, 1, 8} {
				scfg := cfg
				scfg.ShardSim = true
				scfg.ShardWorkers = workers
				sharded, err := netsim.Run(s.Inst, scfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderDeep(s, sharded); got != want {
					t.Errorf("workers=%d: sharded run diverged:\n got: %s\nwant: %s", workers, got, want)
				}
			}
		})
	}
}

// TestShardedEquivalenceSeeds is the 200-seed property sweep: across
// seeds (cycling through all five protocol stacks) the sharded and
// single-engine runs of a two-component scenario must agree exactly.
func TestShardedEquivalenceSeeds(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	s := tiledFig1(t, 2)
	for seed := 0; seed < seeds; seed++ {
		p := allProtocols[seed%len(allProtocols)]
		cfg := netsim.Config{Protocol: p, Duration: 2 * sim.Second, Seed: int64(seed)}
		single, err := netsim.Run(s.Inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ShardSim = true
		cfg.ShardWorkers = 4
		sharded, err := netsim.Run(s.Inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderDeep(s, sharded), renderDeep(s, single); got != want {
			t.Fatalf("seed %d (%s): sharded diverged:\n got: %s\nwant: %s", seed, p, got, want)
		}
	}
}

// TestShardedManyWorkersRace drives an eight-component tiling through
// an 8-way worker pool repeatedly. Run under -race this validates that
// concurrent shard engines share no mutable state; without -race it
// still pins equivalence at high worker counts.
func TestShardedManyWorkersRace(t *testing.T) {
	s := tiledFig6(t, 8)
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 11}
	single, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDeep(s, single)
	for round := 0; round < 3; round++ {
		scfg := cfg
		scfg.ShardSim = true
		scfg.ShardWorkers = 8
		r, err := netsim.Run(s.Inst, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDeep(s, r); got != want {
			t.Fatalf("round %d: sharded diverged", round)
		}
	}
}

// TestNodeIDPermutation pins the per-node RNG scheme itself: in a
// topology made of two geometrically identical, radio-disjoint chains,
// relabeling which chain carries which node IDs while keeping each
// flow attached to its node IDs must reproduce identical per-flow
// outcomes — the node's stream follows its global ID, and the flow's
// CBR offset follows its index, so the spatial swap is unobservable.
// Under the old engine-order shared RNG this fails: the interleaving
// of the two chains' events would shift every draw.
func TestNodeIDPermutation(t *testing.T) {
	build := func(swapped bool) (*scenario.Scenario, error) {
		// Chain X at the origin, chain Y far away; swapped=true places
		// the ID block 0-2 on Y's site and 3-5 on X's site.
		x0, y0 := 0.0, 5000.0
		if swapped {
			x0, y0 = 5000.0, 0.0
		}
		b := topology.NewBuilder(topology.DefaultRange, 0)
		b.Add("x0", x0, 0)
		b.Add("x1", x0+200, 0)
		b.Add("x2", x0+400, 0)
		b.Add("y0", y0, 0)
		b.Add("y1", y0+200, 0)
		b.Add("y2", y0+400, 0)
		topo, err := b.Build()
		if err != nil {
			return nil, err
		}
		fx, err := flow.New("FX", 1, []topology.NodeID{0, 1, 2})
		if err != nil {
			return nil, err
		}
		fy, err := flow.New("FY", 1, []topology.NodeID{3, 4, 5})
		if err != nil {
			return nil, err
		}
		set, err := flow.NewSet(fx, fy)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(topo, set)
		if err != nil {
			return nil, err
		}
		return &scenario.Scenario{Name: "perm", Topo: topo, Flows: set, Inst: inst}, nil
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			a, err := build(false)
			if err != nil {
				t.Fatal(err)
			}
			bsc, err := build(true)
			if err != nil {
				t.Fatal(err)
			}
			cfg := netsim.Config{Protocol: p, Duration: 2 * sim.Second, Seed: 5}
			ra, err := netsim.Run(a.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := netsim.Run(bsc.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Per-flow observables must be identical across the
			// relabeling; node-keyed airtime swaps with the embedding,
			// so compare the flow view only.
			if got, want := renderRun(a, rb), renderRun(a, ra); got != want {
				t.Errorf("ID permutation changed per-flow results:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestShardedResilientEquivalence pins the fault/watchdog path: a
// two-component tiling with loss, node and link faults in both tiles
// must deliver identical packet accounting sharded and single. Repair
// and reallocation cadence counters (Reallocations, WatchdogChecks,
// GroupSolves/GroupReuses) legitimately differ — each shard runs its
// own watchdog — so they are excluded from the comparison. The churn
// cases run the same check on RunDynamic: a tiled diamond whose flows
// stop and restart while a link on each flow's path is cut, so the
// fault plan, the repair and the churn reallocations all take effect.
func TestShardedResilientEquivalence(t *testing.T) {
	s := tiledFig1(t, 2)
	// fig1 nodes per tile: A B C D E F = 0..5, tile 1 at 6..11.
	plan := &fault.Plan{
		Seed:        9,
		DefaultLoss: 0.02,
		LinkLoss:    []fault.LinkLoss{{A: 0, B: 1, Rate: 0.2}, {A: 9, B: 10, Rate: 0.15}},
		NodeFaults:  []fault.NodeFault{{Node: 7, Down: sim.Second, Up: 2 * sim.Second}},
		LinkFaults:  []fault.LinkFault{{A: 1, B: 2, Down: 1500 * sim.Millisecond, Up: 2500 * sim.Millisecond}},
	}
	// check compares a sharded run with the single-engine run.
	check := func(t *testing.T, s *scenario.Scenario, sharded, single *netsim.Result) {
		t.Helper()
		if got, want := renderDeep(s, sharded), renderDeep(s, single); got != want {
			t.Errorf("sharded resilient run diverged:\n got: %s\nwant: %s", got, want)
		}
		sr, wr := sharded.Resilience, single.Resilience
		if sr == nil || wr == nil {
			t.Fatal("missing resilience report")
		}
		type packetView struct {
			emitted, injected, delivered            int64
			srcDrops, queueDrops, retryDrops        int64
			noRoute, corrupt, injectedLoss          int64
			linkDead, routeErrors, reroutes, salved int64
		}
		view := func(r *netsim.ResilienceReport) packetView {
			return packetView{
				r.Emitted, r.Injected, r.Delivered,
				r.SourceDrops, r.QueueDrops, r.RetryDrops,
				r.NoRouteDrops, r.CorruptFrames, r.InjectedLosses,
				r.LinkDeadSignals, r.RouteErrors, r.Reroutes, r.Salvaged,
			}
		}
		if view(sr) != view(wr) {
			t.Errorf("resilience packet accounting diverged:\n got: %+v\nwant: %+v", view(sr), view(wr))
		}
		if len(sr.FinalRoutes) != len(wr.FinalRoutes) {
			t.Fatalf("final route counts differ: %d vs %d", len(sr.FinalRoutes), len(wr.FinalRoutes))
		}
		for id, want := range wr.FinalRoutes {
			got := sr.FinalRoutes[id]
			if len(got) != len(want) {
				t.Errorf("flow %s final route length %d != %d", id, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("flow %s final route hop %d: %d != %d", id, i, got[i], want[i])
				}
			}
		}
	}
	protocols := []netsim.Protocol{netsim.Protocol80211, netsim.Protocol2PAC, netsim.ProtocolDFS}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{
				Protocol: p,
				Duration: 4 * sim.Second,
				Seed:     13,
				Fault:    plan,
				Watchdog: true,
			}
			single, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ShardSim = true
			cfg.ShardWorkers = 4
			sharded, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, s, sharded, single)
		})
	}

	dia := diamondInstance(t)
	ds, err := scenario.Tiled(&scenario.Scenario{Name: "diamond", Topo: dia.Topo, Flows: dia.Flows, Inst: dia}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Diamond nodes per tile: A B C D = 0..3, tile 1 at 4..7. Each
	// tile's A-B link is cut for good; tile 1's while its flow is off.
	churnPlan := &fault.Plan{
		Seed:        4,
		DefaultLoss: 0.01,
		LinkFaults: []fault.LinkFault{
			{A: 0, B: 1, Down: sim.Second},
			{A: 4, B: 5, Down: 2500 * sim.Millisecond},
		},
	}
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"T0:F1", "T1:F1"}},
		{At: 2 * sim.Second, Stop: []flow.ID{"T0:F1", "T1:F1"}},
		{At: 3 * sim.Second, Start: []flow.ID{"T0:F1", "T1:F1"}},
	}
	for _, p := range protocols {
		t.Run("churn/"+p.String(), func(t *testing.T) {
			cfg := netsim.Config{
				Protocol:    p,
				Duration:    5 * sim.Second,
				Seed:        13,
				PacketsPerS: 100,
				SampleEvery: sim.Second,
				Fault:       churnPlan,
				Watchdog:    true,
			}
			single, err := netsim.RunDynamic(ds.Inst, cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ShardSim = true
			cfg.ShardWorkers = 2
			sharded, err := netsim.RunDynamic(ds.Inst, cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			check(t, ds, &sharded.Result, &single.Result)
			rep := single.Resilience
			if rep.Reroutes < 2 {
				t.Errorf("reroutes = %d, want one per cut tile", rep.Reroutes)
			}
			if len(rep.Violations) != 0 || len(sharded.Resilience.Violations) != 0 {
				t.Errorf("watchdog violations: single %v, sharded %v", rep.Violations, sharded.Resilience.Violations)
			}
		})
	}
}

// TestShardedDynamicEquivalence pins the churn path: start/stop events
// hitting flows in both tiles must yield identical delivery statistics
// sharded and single. (Reallocation counters tally per-shard solves
// and FinalShares covers each shard's last solve, so only the packet
// observables are compared.)
func TestShardedDynamicEquivalence(t *testing.T) {
	s := tiledFig1(t, 2)
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"T0:F1", "T1:F1"}},
		{At: sim.Second, Start: []flow.ID{"T0:F2"}, Stop: []flow.ID{"T1:F1"}},
		{At: 2 * sim.Second, Start: []flow.ID{"T1:F2"}, Stop: []flow.ID{"T0:F1"}},
	}
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.Protocol2PAC} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{
				Protocol:    p,
				Duration:    4 * sim.Second,
				Seed:        21,
				SampleEvery: sim.Second,
			}
			single, err := netsim.RunDynamic(s.Inst, cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ShardSim = true
			cfg.ShardWorkers = 2
			sharded, err := netsim.RunDynamic(s.Inst, cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderDeep(s, &sharded.Result), renderDeep(s, &single.Result); got != want {
				t.Errorf("sharded dynamic run diverged:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestShardedMobilityEquivalence composes sharding with the mobility
// epoch loop: the same mobile scenario with Net.ShardSim on and off
// must produce identical epoch and total accounting, with every epoch
// partitioned into its radio components afresh.
func TestShardedMobilityEquivalence(t *testing.T) {
	base := func(shard bool) mobility.Config {
		return mobility.Config{
			Nodes: 30,
			Waypoint: mobility.WaypointConfig{
				Width: 3000, Height: 3000, MinSpeed: 1, MaxSpeed: 15, MaxPause: sim.Second,
			},
			Flows: []mobility.FlowSpec{
				{ID: "F1", Src: 0, Dst: 10},
				{ID: "F2", Src: 5, Dst: 15},
				{ID: "F3", Src: 2, Dst: 25, Weight: 2},
			},
			Protocol: netsim.Protocol2PAC,
			Epoch:    5 * sim.Second,
			Duration: 25 * sim.Second,
			Seed:     17,
			Net:      netsim.Config{ShardSim: shard},
		}
	}
	plain, err := mobility.Run(base(false))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := mobility.Run(base(true))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalDelivered != sharded.TotalDelivered || plain.TotalLost != sharded.TotalLost {
		t.Errorf("totals diverged: delivered %d vs %d, lost %d vs %d",
			plain.TotalDelivered, sharded.TotalDelivered, plain.TotalLost, sharded.TotalLost)
	}
	for id, n := range plain.PerFlow {
		if sharded.PerFlow[id] != n {
			t.Errorf("flow %s delivered %d sharded vs %d single", id, sharded.PerFlow[id], n)
		}
	}
	if len(plain.Epochs) != len(sharded.Epochs) {
		t.Fatal("epoch counts differ")
	}
	for i := range plain.Epochs {
		if plain.Epochs[i].Delivered != sharded.Epochs[i].Delivered || plain.Epochs[i].Lost != sharded.Epochs[i].Lost {
			t.Errorf("epoch %d diverged", i)
		}
	}
}

// TestShardedSingleComponentFallsBack checks the cutoff: a one-
// component scenario with ShardSim set must still take the exact
// single-engine path (and its result must of course match).
func TestShardedSingleComponentFallsBack(t *testing.T) {
	s, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	var cs topology.RadioComponentSet
	s.Topo.AppendRadioComponents(&cs)
	if cs.Len() != 1 {
		t.Skipf("figure6 has %d radio components, expected 1", cs.Len())
	}
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 2}
	single, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardSim = true
	r, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDeep(s, r), renderDeep(s, single); got != want {
		t.Errorf("single-component ShardSim run diverged from plain run")
	}
}

// TestMergeHelpers covers the stats merge primitives directly,
// including the overlap and mismatch cases the sharded path never
// produces.
func TestMergeHelpers(t *testing.T) {
	a, b := stats.NewSeries(sim.Second), stats.NewSeries(sim.Second)
	ca, cb := stats.NewCollector(), stats.NewCollector()
	id := flow.SubflowID{Flow: "F1", Hop: 1}
	ca.HopDelivered(id, true)
	ca.HopDelivered(id, true)
	cb.HopDelivered(id, true)
	a.Sample(sim.Second, ca)
	b.Sample(sim.Second, cb)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if w := a.Windows("F1"); len(w) != 1 || w[0] != 3 {
		t.Errorf("merged windows = %v, want [3]", w)
	}
	mismatch := stats.NewSeries(2 * sim.Second)
	if err := a.Merge(mismatch); err == nil {
		t.Error("period mismatch accepted")
	}
	ca.Merge(cb)
	if got := ca.Subflow(id); got != 3 {
		t.Errorf("merged collector subflow count = %d, want 3", got)
	}
}

// TestShardedCrashedComponentEquivalence crashes every node of one
// radio component for essentially the whole run: the component still
// shards, its engine simulates parked nodes without delivering
// anything, and the sharded result stays byte-identical to the
// single-engine run. This pins the degenerate shard shape — a
// component containing only crashed nodes — end to end.
func TestShardedCrashedComponentEquivalence(t *testing.T) {
	s := tiledFig1(t, 2)
	// Tile 1 occupies nodes 6..11; take the whole tile down at 1 ms,
	// never to recover.
	var faults []fault.NodeFault
	for n := topology.NodeID(6); n <= 11; n++ {
		faults = append(faults, fault.NodeFault{Node: n, Down: sim.Millisecond})
	}
	plan := &fault.Plan{Seed: 5, NodeFaults: faults}
	cfg := netsim.Config{
		Protocol: netsim.Protocol2PAC,
		Duration: 3 * sim.Second,
		Seed:     11,
		Fault:    plan,
	}
	single, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardSim = true
	cfg.ShardWorkers = 4
	sharded, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDeep(s, sharded), renderDeep(s, single); got != want {
		t.Errorf("crashed-component sharded run diverged:\n got: %s\nwant: %s", got, want)
	}
	// Flows living on the crashed tile deliver at most a packet or two
	// (whatever squeezed through before the 1 ms crash).
	for _, f := range s.Flows.Flows() {
		if f.Subflows()[0].Src < 6 {
			continue
		}
		if n := sharded.Stats.EndToEnd(f.ID()); n > 2 {
			t.Errorf("flow %s on the crashed component delivered %d packets", f.ID(), n)
		}
	}
}
