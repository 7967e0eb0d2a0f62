package e2efair_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"e2efair"
	"e2efair/internal/flow"
)

// fig1Spec is the paper's Fig. 1 network expressed via the public API.
func fig1Spec() e2efair.NetworkSpec {
	return e2efair.NetworkSpec{
		Nodes: []e2efair.NodeSpec{
			{Name: "A", X: 0, Y: 0}, {Name: "B", X: 200, Y: 0}, {Name: "C", X: 400, Y: 0},
			{Name: "D", X: 600, Y: 200}, {Name: "E", X: 600, Y: 0}, {Name: "F", X: 800, Y: 0},
		},
		Flows: []e2efair.FlowSpec{
			{ID: "F1", Path: []string{"A", "B", "C"}},
			{ID: "F2", Path: []string{"D", "E", "F"}},
		},
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := e2efair.NewNetwork(e2efair.NetworkSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
	spec := fig1Spec()
	spec.Flows[0].Path = []string{"A", "Z"}
	if _, err := e2efair.NewNetwork(spec); err == nil {
		t.Error("unknown node in path should fail")
	}
	spec = fig1Spec()
	spec.Flows[0].Path = []string{"A", "C"} // not a link
	if _, err := e2efair.NewNetwork(spec); err == nil {
		t.Error("non-link hop should fail")
	}
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		spec = fig1Spec()
		spec.Flows[0].Weight = w
		if _, err := e2efair.NewNetwork(spec); !errors.Is(err, flow.ErrBadWeight) {
			t.Errorf("weight %g: err = %v, want ErrBadWeight", w, err)
		}
	}
}

func TestAllocateCentralizedMatchesPaper(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := net.Allocate(e2efair.StrategyCentralized)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.PerFlow["F1"]-0.5) > 1e-6 || math.Abs(alloc.PerFlow["F2"]-0.25) > 1e-6 {
		t.Errorf("PerFlow = %v, want F1=0.5 F2=0.25", alloc.PerFlow)
	}
	if math.Abs(alloc.Total-0.75) > 1e-6 {
		t.Errorf("Total = %g", alloc.Total)
	}
	if got := alloc.PerSubflow["F1.1"]; math.Abs(got-0.5) > 1e-6 {
		t.Errorf("PerSubflow[F1.1] = %g", got)
	}
}

func TestAllocateAllStrategies(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e2efair.Strategies() {
		alloc, err := net.Allocate(s)
		if err != nil {
			t.Errorf("strategy %s: %v", s, err)
			continue
		}
		if len(alloc.PerFlow) != 2 {
			t.Errorf("strategy %s: PerFlow = %v", s, alloc.PerFlow)
		}
		for id, r := range alloc.PerFlow {
			if r <= 0 || r > 1 {
				t.Errorf("strategy %s: flow %s share %g out of (0,1]", s, id, r)
			}
		}
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range e2efair.Strategies() {
		got, err := e2efair.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %s: %v, %v", s, got, err)
		}
	}
	if _, err := e2efair.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy should fail")
	}
}

func TestAutoRoute(t *testing.T) {
	spec := fig1Spec()
	spec.Flows[0] = e2efair.FlowSpec{ID: "F1", Path: []string{"A", "C"}, AutoRoute: true}
	net, err := e2efair.NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	path, err := net.FlowPath("F1")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != "A" || path[1] != "B" || path[2] != "C" {
		t.Errorf("auto-routed path = %v", path)
	}
}

func TestContentionReport(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	rep := net.Contention()
	if len(rep.Subflows) != 4 {
		t.Fatalf("subflows = %v", rep.Subflows)
	}
	if len(rep.Edges) != 4 {
		t.Errorf("edges = %v", rep.Edges)
	}
	if len(rep.Cliques) != 2 {
		t.Errorf("cliques = %v", rep.Cliques)
	}
	if len(rep.FlowGroups) != 1 {
		t.Errorf("groups = %v", rep.FlowGroups)
	}
	if rep.WeightedCliqueNumber != 3 {
		t.Errorf("ω_Ω = %g, want 3", rep.WeightedCliqueNumber)
	}
	// Colouring must separate F1.2 from F2.1/F2.2.
	if rep.Colors["F1.2"] == rep.Colors["F2.1"] {
		t.Error("contending subflows share a colour")
	}
}

func TestSimulateThroughAPI(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Simulate(e2efair.SimConfig{
		Protocol: e2efair.Protocol2PAC, DurationSec: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationSec != 10 {
		t.Errorf("DurationSec = %g", res.DurationSec)
	}
	if res.TotalDelivered == 0 {
		t.Error("nothing delivered")
	}
	if res.PerFlowDelivered["F1"] == 0 || res.PerFlowDelivered["F2"] == 0 {
		t.Errorf("per-flow = %v", res.PerFlowDelivered)
	}
	if res.PerSubflowDelivered["F1.1"] == 0 {
		t.Errorf("per-subflow = %v", res.PerSubflowDelivered)
	}
	if math.Abs(res.SharesUsed["F1.1"]-0.5) > 1e-5 {
		t.Errorf("SharesUsed = %v", res.SharesUsed)
	}
	if _, err := net.Simulate(e2efair.SimConfig{Protocol: "bogus"}); err == nil {
		t.Error("bogus protocol should fail")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := fig1Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back e2efair.NetworkSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(spec.Nodes) || len(back.Flows) != len(spec.Flows) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if _, err := e2efair.NewNetwork(back); err != nil {
		t.Errorf("round-tripped spec unusable: %v", err)
	}
}

func TestWeightsDefaultToOne(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	basic, err := net.Allocate(e2efair.StrategyBasic)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(basic.PerFlow["F1"]-0.25) > 1e-9 {
		t.Errorf("basic F1 = %g, want 0.25", basic.PerFlow["F1"])
	}
}

func TestNodesAndFlowsAccessors(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Nodes(); len(got) != 6 || got[0] != "A" {
		t.Errorf("Nodes = %v", got)
	}
	if got := net.Flows(); len(got) != 2 || got[0] != "F1" {
		t.Errorf("Flows = %v", got)
	}
	if _, err := net.FlowPath("nope"); err == nil {
		t.Error("unknown flow path should fail")
	}
	if net.Instance() == nil || net.Graph() == nil {
		t.Error("accessors returned nil")
	}
}

func TestAllocationString(t *testing.T) {
	net, err := e2efair.NewNetwork(fig1Spec())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := net.Allocate(e2efair.StrategyBasic)
	if err != nil {
		t.Fatal(err)
	}
	s := alloc.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestBuiltinSpecs(t *testing.T) {
	// groups is the number of contending flow groups: in the parking
	// lot every cross flow contends with the long flow, so it is one.
	cases := []struct {
		name   string
		flows  int
		groups int
	}{
		{"figure1", 2, 1}, {"figure6", 5, 1}, {"pentagon", 5, 1},
		{"chain:4", 1, 1}, {"grid:3x4", 4, 1}, {"parkinglot:6", 3, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := e2efair.BuiltinSpec(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if len(spec.Flows) != c.flows {
				t.Errorf("flows = %d, want %d", len(spec.Flows), c.flows)
			}
			net, err := e2efair.NewNetwork(spec)
			if err != nil {
				t.Fatalf("builtin %s unusable: %v", c.name, err)
			}
			if groups := net.Contention().FlowGroups; len(groups) != c.groups {
				t.Errorf("flow groups = %v, want %d", groups, c.groups)
			}
			if _, err := net.Allocate(e2efair.StrategyCentralized); err != nil {
				t.Errorf("allocate: %v", err)
			}
		})
	}
	for _, bad := range []string{"nope", "chain:0", "chain:x", "grid:1x4", "grid:3", "parkinglot:1"} {
		if _, err := e2efair.BuiltinSpec(bad); err == nil {
			t.Errorf("builtin %q should fail", bad)
		}
	}
}

func TestTraceWriterThroughAPI(t *testing.T) {
	net, err := e2efair.NewNetwork(e2efair.Figure1Spec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = net.Simulate(e2efair.SimConfig{
		Protocol: e2efair.Protocol2PAC, DurationSec: 1, Seed: 1,
		TraceWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no trace output")
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, "->") && !strings.HasPrefix(first, "c") {
		t.Errorf("unexpected first trace line %q", first)
	}
}
