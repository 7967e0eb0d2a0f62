package netsim_test

import (
	"fmt"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// diamondInstance builds A-B-C in a line with D above B: the flow
// A→B→C has exactly one alternative route A→D→C, so a cut of A-B has
// a unique repair.
func diamondInstance(t *testing.T) *core.Instance {
	t.Helper()
	topo, err := topology.NewBuilder(topology.DefaultRange, 0).
		Add("A", 0, 0).Add("B", 200, 0).Add("C", 400, 0).Add("D", 200, 140).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := flow.New("F1", 1, []topology.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	set, err := flow.NewSet(f)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func pathEq(a []topology.NodeID, b ...topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLinkCutReroutes(t *testing.T) {
	inst := diamondInstance(t)
	plan := &fault.Plan{
		Seed:       5,
		LinkFaults: []fault.LinkFault{{A: 0, B: 1, Down: 5 * sim.Second}},
	}
	res, err := netsim.Run(inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    10 * sim.Second,
		Seed:        1,
		PacketsPerS: 100,
		Fault:       plan,
		Watchdog:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil {
		t.Fatal("no resilience report")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("watchdog violations: %v", rep.Violations)
	}
	if rep.Reroutes < 1 {
		t.Errorf("reroutes = %d, want >= 1", rep.Reroutes)
	}
	if rep.RouteErrors < 1 {
		t.Errorf("route errors = %d, want >= 1", rep.RouteErrors)
	}
	if got := rep.FinalRoutes["F1"]; !pathEq(got, 0, 3, 2) {
		t.Errorf("final route = %v, want [0 3 2] via D", got)
	}
	if rep.Reallocations < 1 {
		t.Errorf("reallocations = %d, want >= 1 after reroute", rep.Reallocations)
	}
	// Traffic must keep flowing after the cut: a stalled flow would
	// deliver only ~5 s of the 10 s load.
	if rep.Delivered < 700 {
		t.Errorf("delivered = %d, want > 700 of ~1000 (flow stalled after cut?)", rep.Delivered)
	}
	if rep.Injected != rep.Delivered+rep.QueueDrops+rep.RetryDrops+rep.NoRouteDrops {
		t.Errorf("unattributed losses: injected %d, delivered %d, drops %d/%d/%d",
			rep.Injected, rep.Delivered, rep.QueueDrops, rep.RetryDrops, rep.NoRouteDrops)
	}
}

func TestNodeCrashAndRecovery(t *testing.T) {
	inst := diamondInstance(t)
	plan := &fault.Plan{
		Seed:       5,
		NodeFaults: []fault.NodeFault{{Node: 1, Down: 3 * sim.Second, Up: 6 * sim.Second}},
	}
	res, err := netsim.Run(inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    10 * sim.Second,
		Seed:        1,
		PacketsPerS: 100,
		Fault:       plan,
		Watchdog:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if len(rep.Violations) != 0 {
		t.Errorf("watchdog violations: %v", rep.Violations)
	}
	if rep.Reroutes < 1 {
		t.Errorf("reroutes = %d, want >= 1 after crash of B", rep.Reroutes)
	}
	if got := rep.FinalRoutes["F1"]; !pathEq(got, 0, 3, 2) {
		t.Errorf("final route = %v, want the detour [0 3 2]", got)
	}
	if rep.Delivered < 700 {
		t.Errorf("delivered = %d, want > 700 (flow stalled?)", rep.Delivered)
	}
}

func TestInjectedLossAttribution(t *testing.T) {
	// Every corruption the injector causes must surface as a counted
	// corrupt frame: netsim runs have no broadcasts, so the two
	// counters must agree exactly.
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Seed: 11, DefaultLoss: 0.05}
	res, err := netsim.Run(s.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC,
		Duration: 5 * sim.Second,
		Seed:     1,
		Fault:    plan,
		Watchdog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep.CorruptFrames == 0 {
		t.Fatal("5% loss over 5 s injected no corruption")
	}
	if rep.CorruptFrames != rep.InjectedLosses {
		t.Errorf("attribution: %d corrupt frames seen, injector caused %d",
			rep.CorruptFrames, rep.InjectedLosses)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("watchdog violations: %v", rep.Violations)
	}
}

func TestResilientRunDeterministic(t *testing.T) {
	inst := diamondInstance(t)
	plan := &fault.Plan{
		Seed:        7,
		DefaultLoss: 0.02,
		LinkFaults:  []fault.LinkFault{{A: 0, B: 1, Down: 2 * sim.Second, Up: 4 * sim.Second}},
		NodeFaults:  []fault.NodeFault{{Node: 3, Down: 6 * sim.Second, Up: 7 * sim.Second}},
	}
	cfg := netsim.Config{
		Protocol:    netsim.Protocol2PAD,
		Duration:    8 * sim.Second,
		Seed:        3,
		PacketsPerS: 100,
		Fault:       plan,
		Watchdog:    true,
	}
	render := func(r *netsim.Result) string {
		rep := r.Resilience
		return fmt.Sprintf("e2e=%d lost=%d coll=%d emit=%d inj=%d del=%d drops=%d/%d/%d/%d corrupt=%d dead=%d rerr=%d rr=%d salv=%d realloc=%d degraded=%d repair=%d viol=%d",
			r.Stats.TotalEndToEnd(), r.Stats.Lost(), r.Stats.Collisions(),
			rep.Emitted, rep.Injected, rep.Delivered,
			rep.SourceDrops, rep.QueueDrops, rep.RetryDrops, rep.NoRouteDrops,
			rep.CorruptFrames, rep.LinkDeadSignals, rep.RouteErrors, rep.Reroutes,
			rep.Salvaged, rep.Reallocations, rep.DegradedAllocs, int64(rep.RepairTime),
			len(rep.Violations))
	}
	r1, err := netsim.Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := netsim.Run(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := render(r1), render(r2)
	if s1 != s2 {
		t.Errorf("seeded fault runs diverged:\n%s\n%s", s1, s2)
	}
	if len(r1.Resilience.Violations) != 0 {
		t.Errorf("watchdog violations: %v", r1.Resilience.Violations)
	}
}

func TestWatchdogOnFaultFreeRun(t *testing.T) {
	// Watchdog without a fault plan: the run must match the plain
	// datapath packet for packet and report zero violations.
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	base := netsim.Config{
		Protocol: netsim.Protocol2PAC,
		Duration: 5 * sim.Second,
		Seed:     1,
	}
	plain, err := netsim.Run(s.Inst, base)
	if err != nil {
		t.Fatal(err)
	}
	watched := base
	watched.Watchdog = true
	res, err := netsim.Run(s.Inst, watched)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil {
		t.Fatal("watchdog run returned no report")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations on a fault-free run: %v", rep.Violations)
	}
	if rep.WatchdogChecks == 0 {
		t.Error("watchdog never ran")
	}
	if got, want := res.Stats.TotalEndToEnd(), plain.Stats.TotalEndToEnd(); got != want {
		t.Errorf("watchdog changed the simulation: e2e %d vs %d", got, want)
	}
	if res.Stats.Collisions() != plain.Stats.Collisions() {
		t.Errorf("watchdog changed collisions: %d vs %d",
			res.Stats.Collisions(), plain.Stats.Collisions())
	}
	if rep.InjectedLosses != 0 || rep.CorruptFrames != 0 {
		t.Errorf("fault-free run reports losses: %d/%d", rep.InjectedLosses, rep.CorruptFrames)
	}
}

func TestPartitionedFlowDegradesGracefully(t *testing.T) {
	// Cut both of A's links: the flow has no route at all. The run
	// must finish cleanly with attributed no-route/retry drops, and
	// recover once the links come back.
	inst := diamondInstance(t)
	plan := &fault.Plan{
		Seed: 5,
		LinkFaults: []fault.LinkFault{
			{A: 0, B: 1, Down: 3 * sim.Second, Up: 6 * sim.Second},
			{A: 0, B: 3, Down: 3 * sim.Second, Up: 6 * sim.Second},
		},
	}
	res, err := netsim.Run(inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    10 * sim.Second,
		Seed:        1,
		PacketsPerS: 100,
		Fault:       plan,
		Watchdog:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if len(rep.Violations) != 0 {
		t.Errorf("watchdog violations: %v", rep.Violations)
	}
	// During the outage the source keeps emitting; those packets must
	// be attributed, not lost silently.
	if rep.Injected != rep.Delivered+rep.QueueDrops+rep.RetryDrops+rep.NoRouteDrops {
		t.Errorf("unattributed losses: injected %d, delivered %d, drops %d/%d/%d",
			rep.Injected, rep.Delivered, rep.QueueDrops, rep.RetryDrops, rep.NoRouteDrops)
	}
	// Delivery resumes after restoration: more than the ~300 packets
	// of the pre-cut window must arrive.
	if rep.Delivered < 400 {
		t.Errorf("delivered = %d, want > 400 (no recovery after restore?)", rep.Delivered)
	}
	route := rep.FinalRoutes["F1"]
	if len(route) < 3 || route[0] != 0 || route[len(route)-1] != 2 {
		t.Errorf("final route = %v, want a live A→C route", route)
	}
}

// kindCounter is a mac.Tracer that counts events by kind.
type kindCounter map[mac.TraceKind]int

func (k kindCounter) Trace(ev mac.TraceEvent) { k[ev.Kind]++ }

// TestResilientTraceEvents checks that the recovery pipeline emits its
// structured events through the tracer gate: a lossy link cut must
// produce corruption (x), link-dead (L) and reroute (R) records.
func TestResilientTraceEvents(t *testing.T) {
	inst := diamondInstance(t)
	plan := &fault.Plan{
		Seed:        5,
		DefaultLoss: 0.02,
		LinkFaults:  []fault.LinkFault{{A: 0, B: 1, Down: 3 * sim.Second}},
	}
	seen := kindCounter{}
	_, err := netsim.Run(inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    6 * sim.Second,
		Seed:        1,
		PacketsPerS: 100,
		Fault:       plan,
		Tracer:      seen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []mac.TraceKind{mac.TraceCorrupt, mac.TraceLinkDead, mac.TraceReroute} {
		if seen[k] == 0 {
			t.Errorf("no %v events traced (saw %v)", k, seen)
		}
	}
}
