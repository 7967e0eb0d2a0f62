package e2efair_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"e2efair"
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/topology"
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

// TestAllocateTotalRepeatable allocates the Fig. 6 network many times:
// Total must not depend on map iteration order.
func TestAllocateTotalRepeatable(t *testing.T) {
	net, err := e2efair.NewNetwork(e2efair.Figure6Spec())
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 100; i++ {
		alloc, err := net.Allocate(e2efair.StrategyCentralized)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(alloc.Total); i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("call %d: Total bits %x, first call %x", i, got, want)
		}
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

// returnsWithin runs build and fails the test if it has not returned
// within 5 s.
func returnsWithin(t *testing.T, build func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- build() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("did not return within 5 s")
		return nil
	}
}

// Non-finite coordinates and ranges are rejected with typed errors
// instead of hanging the topology build or surfacing as a bogus
// "not a radio link".
func TestNewNetworkNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*e2efair.NetworkSpec)
		want error
	}{
		{"first-x-nan", func(s *e2efair.NetworkSpec) { s.Nodes[0].X = nan }, topology.ErrBadPosition},
		{"x-inf", func(s *e2efair.NetworkSpec) { s.Nodes[3].X = inf }, topology.ErrBadPosition},
		{"x-minus-inf", func(s *e2efair.NetworkSpec) { s.Nodes[5].X = -inf }, topology.ErrBadPosition},
		{"y-nan", func(s *e2efair.NetworkSpec) { s.Nodes[2].Y = nan }, topology.ErrBadPosition},
		{"tx-nan", func(s *e2efair.NetworkSpec) { s.TxRange = nan }, topology.ErrBadRange},
		{"tx-inf", func(s *e2efair.NetworkSpec) { s.TxRange = inf }, topology.ErrBadRange},
		{"interference-nan", func(s *e2efair.NetworkSpec) { s.InterferenceRange = nan }, topology.ErrBadRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := fig1Spec()
			c.edit(&spec)
			err := returnsWithin(t, func() error { _, err := e2efair.NewNetwork(spec); return err })
			if !errors.Is(err, c.want) {
				t.Errorf("NewNetwork: err = %v, want %v", err, c.want)
			}
			err = returnsWithin(t, func() error { _, _, err := e2efair.NewNetworkWithDiscovery(spec, 1); return err })
			if !errors.Is(err, c.want) {
				t.Errorf("NewNetworkWithDiscovery: err = %v, want %v", err, c.want)
			}
		})
	}
}

// Finite coordinates whose span overflows float64 still build, with
// the two far-apart links intact.
func TestNewNetworkOverflowingSpan(t *testing.T) {
	spec := e2efair.NetworkSpec{
		Nodes: []e2efair.NodeSpec{
			{Name: "A", X: -1e308}, {Name: "B", X: -1e308, Y: 200},
			{Name: "C", X: 1e308}, {Name: "D", X: 1e308, Y: 200},
		},
		Flows: []e2efair.FlowSpec{{ID: "F1", Path: []string{"A", "B"}}, {ID: "F2", Path: []string{"C", "D"}}},
	}
	var net *e2efair.Network
	if err := returnsWithin(t, func() (err error) { net, err = e2efair.NewNetwork(spec); return err }); err != nil {
		t.Fatal(err)
	}
	if groups := net.Contention().FlowGroups; len(groups) != 2 {
		t.Errorf("flow groups %v, want two independent flows", groups)
	}
}

// TestWeightScaleInvariance checks that 2PA-C and 2PA-D depend only
// on the ratios of the flow weights, as the paper's shares do. Scaling
// every weight by a power of two, down to a subnormal one, gives the
// unit-weight shares bit for bit; other scales, up to 1e308, where
// Σ w_j·v_j overflows unless the weights are scaled first, give them
// within 1e-12. A 3-node chain with very large, very small or very
// unequal weights allocates without error, and one whose weights are
// 1e600 apart fails with core.ErrWeightRange.
func TestWeightScaleInvariance(t *testing.T) {
	strategies := []e2efair.Strategy{e2efair.StrategyCentralized, e2efair.StrategyDistributed}
	allocate := func(spec e2efair.NetworkSpec, s e2efair.Strategy) map[string]float64 {
		t.Helper()
		net, err := e2efair.NewNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := net.Allocate(s)
		if err != nil {
			t.Fatalf("weights %v: %v", spec.Flows[0].Weight, err)
		}
		return a.PerFlow
	}
	scaled := func(spec e2efair.NetworkSpec, scale float64) e2efair.NetworkSpec {
		spec.Flows = append([]e2efair.FlowSpec(nil), spec.Flows...)
		for i := range spec.Flows {
			spec.Flows[i].Weight = scale
		}
		return spec
	}
	fig6 := e2efair.Figure6Spec()
	for _, s := range strategies {
		want := allocate(fig6, s)
		for _, c := range []struct {
			scale, tol float64
		}{{0x1p40, 0}, {0x1p-40, 0}, {0x1p-1030, 0}, {1e9, 1e-12}, {1e-10, 1e-12}, {1e308, 1e-12}} {
			got := allocate(scaled(fig6, c.scale), s)
			for id, w := range want {
				if d := math.Abs(got[id] - w); d > c.tol {
					t.Errorf("%s, weights ×%g: %s share %.17g, unit weights %.17g", s, c.scale, id, got[id], w)
				}
			}
		}
	}
	chain := e2efair.NetworkSpec{
		Nodes: []e2efair.NodeSpec{{Name: "A", X: 0}, {Name: "B", X: 200}, {Name: "C", X: 400}},
		Flows: []e2efair.FlowSpec{{ID: "F1", Path: []string{"A", "B", "C"}}, {ID: "F2", Path: []string{"B", "C"}}},
	}
	for _, w := range [][2]float64{{1e9, 1e9}, {1e-10, 1e-10}, {1e9, 1}} {
		chain.Flows[0].Weight, chain.Flows[1].Weight = w[0], w[1]
		for _, s := range strategies {
			allocate(chain, s)
		}
	}
	chain.Flows[0].Weight, chain.Flows[1].Weight = 1e300, 1e-300
	net, err := e2efair.NewNetwork(chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategies {
		if _, err := net.Allocate(s); !errors.Is(err, core.ErrWeightRange) {
			t.Errorf("%s, weights (1e300, 1e-300): error %v, want core.ErrWeightRange", s, err)
		}
	}
}
