package scenario

import (
	"math/rand"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/routing"
)

func TestAllPaperScenariosBuild(t *testing.T) {
	builders := map[string]func() (*Scenario, error){
		"figure1":  Figure1,
		"figure2a": Figure2Single,
		"figure2c": Figure2Multi,
		"figure4":  Figure4,
		"pentagon": Pentagon,
		"figure6":  Figure6,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			sc, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if sc.Name != name {
				t.Errorf("name = %q", sc.Name)
			}
			if sc.Inst == nil || sc.Flows.Len() == 0 {
				t.Error("scenario incomplete")
			}
		})
	}
}

func TestFigure1Geometry(t *testing.T) {
	sc, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Inst.Graph
	// Expected edges: F1.1-F1.2, F1.2-F2.1, F1.2-F2.2, F2.1-F2.2 and
	// nothing else (Fig. 1(b)).
	type edge struct{ a, b string }
	want := map[edge]bool{
		{"F1.1", "F1.2"}: true,
		{"F1.2", "F2.1"}: true,
		{"F1.2", "F2.2"}: true,
		{"F2.1", "F2.2"}: true,
	}
	count := 0
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			if !g.Adjacent(i, j) {
				continue
			}
			count++
			a, b := g.Subflow(i).ID.String(), g.Subflow(j).ID.String()
			if !want[edge{a, b}] && !want[edge{b, a}] {
				t.Errorf("unexpected contention edge %s-%s", a, b)
			}
		}
	}
	if count != len(want) {
		t.Errorf("%d edges, want %d", count, len(want))
	}
}

func TestFigure1FlowPaths(t *testing.T) {
	sc, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sc.Flows.Flows() {
		if err := routing.ValidatePath(sc.Topo, f.Path()); err != nil {
			t.Errorf("flow %s: %v", f.ID(), err)
		}
		if f.Length() != 2 {
			t.Errorf("flow %s has %d hops, want 2", f.ID(), f.Length())
		}
	}
}

func TestFigure6Lengths(t *testing.T) {
	sc, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"F1": 4, "F2": 1, "F3": 1, "F4": 2, "F5": 1}
	for id, hops := range want {
		f, err := sc.Flows.Get(flow.ID(id))
		if err != nil {
			t.Fatal(err)
		}
		if f.Length() != hops {
			t.Errorf("%s: %d hops, want %d", id, f.Length(), hops)
		}
	}
	if got := sc.Flows.TotalWeightedVirtualLength(); got != 8 {
		t.Errorf("Σ w·v = %g, want 8", got)
	}
}

func TestFigure6SingleGroup(t *testing.T) {
	sc, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	groups := sc.Inst.Graph.FlowGroups()
	if len(groups) != 1 || len(groups[0]) != 5 {
		t.Errorf("groups = %v, want one group of five", groups)
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := Chain(0); err == nil {
		t.Error("zero-hop chain should fail")
	}
	sc, err := Chain(7)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Inst.Graph.NumVertices() != 7 {
		t.Errorf("vertices = %d", sc.Inst.Graph.NumVertices())
	}
}

func TestPentagonStructure(t *testing.T) {
	sc, err := Pentagon()
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Inst.Graph
	if g.NumVertices() != 5 || g.NumEdges() != 5 {
		t.Fatalf("pentagon has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 2 {
			t.Errorf("vertex %d degree %d, want 2", i, g.Degree(i))
		}
	}
	if len(sc.Inst.Cliques) != 5 {
		t.Errorf("cliques = %d, want 5 edges", len(sc.Inst.Cliques))
	}
}

func TestRandomScenario(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc, err := Random(RandomConfig{Nodes: 25, Width: 900, Height: 900, Flows: 5, MaxHops: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Flows.Len() == 0 {
		t.Fatal("no flows routed")
	}
	for _, f := range sc.Flows.Flows() {
		if err := routing.ValidatePath(sc.Topo, f.Path()); err != nil {
			t.Errorf("flow %s: %v", f.ID(), err)
		}
		if f.Length() > 5 {
			t.Errorf("flow %s exceeds MaxHops: %d", f.ID(), f.Length())
		}
	}
}
