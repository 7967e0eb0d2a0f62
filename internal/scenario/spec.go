package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// NodeSpec places one named node on the plane (meters).
type NodeSpec struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// FlowSpec declares one end-to-end flow. Path lists node names from
// source to destination; with AutoRoute only the endpoints are needed
// and the shortest path is used. Weight defaults to 1.
type FlowSpec struct {
	ID        string   `json:"id"`
	Path      []string `json:"path"`
	Weight    float64  `json:"weight,omitempty"`
	AutoRoute bool     `json:"autoRoute,omitempty"`
}

// NetworkSpec describes a network: nodes, flows and radio ranges.
type NetworkSpec struct {
	Nodes []NodeSpec `json:"nodes"`
	Flows []FlowSpec `json:"flows"`
	// TxRange is the transmission range in meters (default 250).
	TxRange float64 `json:"txRange,omitempty"`
	// InterferenceRange defaults to TxRange.
	InterferenceRange float64 `json:"interferenceRange,omitempty"`
}

// Topology builds the radio topology of the spec's nodes. It is
// Build's first step, and all of it a caller needs whose flows arrive
// later.
func Topology(spec NetworkSpec) (*topology.Topology, error) {
	txRange := spec.TxRange
	if txRange == 0 {
		txRange = topology.DefaultRange
	}
	b := topology.NewBuilder(txRange, spec.InterferenceRange)
	for _, n := range spec.Nodes {
		b.Add(n.Name, n.X, n.Y)
	}
	return b.Build()
}

// Build turns a spec into a ready instance: the topology of its
// nodes, then BuildOn.
func Build(name string, spec NetworkSpec) (*Scenario, error) {
	topo, err := Topology(spec)
	if err != nil {
		return nil, err
	}
	return BuildOn(name, spec, topo)
}

// BuildOn resolves the spec's flows on topo, which must hold the spec's
// nodes, and derives the contention instance. A flow's weight defaults
// to 1; an AutoRoute flow with two endpoints takes the shortest path
// between them.
func BuildOn(name string, spec NetworkSpec, topo *topology.Topology) (*Scenario, error) {
	var tbl *routing.Table
	set, err := flow.NewSet()
	if err != nil {
		return nil, err
	}
	for _, fs := range spec.Flows {
		path := make([]topology.NodeID, len(fs.Path))
		for i, node := range fs.Path {
			if path[i], err = topo.Lookup(node); err != nil {
				return nil, fmt.Errorf("flow %s: %w", fs.ID, err)
			}
		}
		if fs.AutoRoute && len(path) == 2 {
			if tbl == nil {
				tbl = routing.BuildTable(topo)
			}
			if path, err = tbl.Route(path[0], path[1]); err != nil {
				return nil, fmt.Errorf("flow %s: %w", fs.ID, err)
			}
		}
		weight := fs.Weight
		if weight == 0 {
			weight = 1
		}
		f, err := flow.New(flow.ID(fs.ID), weight, path)
		if err != nil {
			return nil, err
		}
		if err := set.Add(f); err != nil {
			return nil, err
		}
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		return nil, err
	}
	return &Scenario{Name: name, Topo: topo, Flows: set, Inst: inst}, nil
}

// builtins is the one table of named networks: BuiltinSpec parses
// against it and BuiltinNames lists it. A name with a ":" suffix takes
// an argument.
var builtins = []struct {
	name string
	spec func(arg string) (NetworkSpec, error)
}{
	{"figure1", func(string) (NetworkSpec, error) { return Figure1Spec(), nil }},
	{"figure6", func(string) (NetworkSpec, error) { return Figure6Spec(), nil }},
	{"pentagon", func(string) (NetworkSpec, error) { return PentagonSpec(), nil }},
	{"chain:N", func(arg string) (NetworkSpec, error) {
		hops, err := strconv.Atoi(arg)
		if err != nil || hops < 1 {
			return NetworkSpec{}, fmt.Errorf("bad chain length %q", arg)
		}
		return ChainSpec(hops), nil
	}},
	{"grid:RxC", func(arg string) (NetworkSpec, error) {
		r, c, ok := strings.Cut(arg, "x")
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if !ok || err1 != nil || err2 != nil || rows < 2 || cols < 2 {
			return NetworkSpec{}, fmt.Errorf("bad grid size %q", arg)
		}
		return GridSpec(rows, cols), nil
	}},
	{"parkinglot:N", func(arg string) (NetworkSpec, error) {
		hops, err := strconv.Atoi(arg)
		if err != nil || hops < 2 {
			return NetworkSpec{}, fmt.Errorf("bad parking-lot length %q", arg)
		}
		return ParkingLotSpec(hops), nil
	}},
}

// BuiltinSpec returns one of the named example networks from the
// paper's evaluation or the classic wireless benchmarks:
//
//	figure1       — Fig. 1: two 2-hop flows with a shared bottleneck
//	figure6       — Fig. 6 / Table I: five flows over fourteen nodes
//	pentagon      — Fig. 5: five links contending in a 5-cycle
//	chain:N       — one N-hop chain flow (Fig. 3 uses N = 6)
//	grid:RxC      — R×C grid with two horizontal and two vertical flows
//	parkinglot:N  — N-hop chain crossed by short flows at its relays
func BuiltinSpec(name string) (NetworkSpec, error) {
	for _, b := range builtins {
		prefix, _, param := strings.Cut(b.name, ":")
		if !param && name == prefix {
			return b.spec("")
		}
		if arg, ok := strings.CutPrefix(name, prefix+":"); ok && param {
			return b.spec(arg)
		}
	}
	names := BuiltinNames()
	last := len(names) - 1
	return NetworkSpec{}, fmt.Errorf("unknown builtin %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// BuiltinNames lists the builtin spec names.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Figure1Spec is the paper's Fig. 1 network: F1 = A→B→C and
// F2 = D→E→F, placed so that F1.2 contends with both subflows of F2
// while F1.1 is free of them.
func Figure1Spec() NetworkSpec {
	return NetworkSpec{
		Nodes: []NodeSpec{
			{Name: "A", X: 0, Y: 0}, {Name: "B", X: 200, Y: 0}, {Name: "C", X: 400, Y: 0},
			{Name: "D", X: 600, Y: 200}, {Name: "E", X: 600, Y: 0}, {Name: "F", X: 800, Y: 0},
		},
		Flows: []FlowSpec{
			{ID: "F1", Path: []string{"A", "B", "C"}},
			{ID: "F2", Path: []string{"D", "E", "F"}},
		},
	}
}

// Figure6Spec is the paper's Fig. 6 / Table I network: five flows
// F1 = A→B→C→D→E, F2 = F→G, F3 = H→I, F4 = J→K→L and F5 = M→N, with
// maximal cliques
//
//	Ω1 = {F1.1,F1.2,F1.3}   Ω2 = {F1.2,F1.3,F1.4}
//	Ω3 = {F1.3,F1.4,F2.1}   Ω4 = {F2.1,F3.1}
//	Ω5 = {F3.1,F4.1}        Ω6 = {F4.1,F4.2,F5.1}
func Figure6Spec() NetworkSpec {
	return NetworkSpec{
		Nodes: []NodeSpec{
			{Name: "A", X: 0, Y: 0}, {Name: "B", X: 200, Y: 0}, {Name: "C", X: 400, Y: 0},
			{Name: "D", X: 600, Y: 0}, {Name: "E", X: 800, Y: 0},
			{Name: "F", X: 600, Y: 220}, {Name: "G", X: 790, Y: 380},
			{Name: "H", X: 1000, Y: 420}, {Name: "I", X: 1200, Y: 540},
			{Name: "J", X: 1400, Y: 640}, {Name: "K", X: 1600, Y: 740}, {Name: "L", X: 1800, Y: 840},
			{Name: "M", X: 1650, Y: 520}, {Name: "N", X: 1850, Y: 420},
		},
		Flows: []FlowSpec{
			{ID: "F1", Path: []string{"A", "B", "C", "D", "E"}},
			{ID: "F2", Path: []string{"F", "G"}},
			{ID: "F3", Path: []string{"H", "I"}},
			{ID: "F4", Path: []string{"J", "K", "L"}},
			{ID: "F5", Path: []string{"M", "N"}},
		},
	}
}

// ChainSpec is a single flow along an N-hop straight line with 200 m
// node spacing.
func ChainSpec(hops int) NetworkSpec {
	spec := NetworkSpec{}
	names := make([]string, hops+1)
	for i := 0; i <= hops; i++ {
		names[i] = fmt.Sprintf("N%d", i)
		spec.Nodes = append(spec.Nodes, NodeSpec{Name: names[i], X: float64(i) * 200})
	}
	spec.Flows = []FlowSpec{{ID: "F1", Path: names}}
	return spec
}

// PentagonSpec embeds the paper's Fig. 5 pentagon geometrically: five
// 200 m links on a 300 m circle, so consecutive links contend
// (nearest endpoints ≈ 171 m) and non-consecutive ones do not
// (≥ 476 m). Pentagon is the abstract 5-cycle the paper draws.
func PentagonSpec() NetworkSpec {
	const r = 300.0
	delta := math.Asin(100.0 / r)
	spec := NetworkSpec{}
	for k := 0; k < 5; k++ {
		phi := 2 * math.Pi * float64(k) / 5
		a := fmt.Sprintf("A%d", k+1)
		b := fmt.Sprintf("B%d", k+1)
		spec.Nodes = append(spec.Nodes,
			NodeSpec{Name: a, X: r * math.Cos(phi-delta), Y: r * math.Sin(phi-delta)},
			NodeSpec{Name: b, X: r * math.Cos(phi+delta), Y: r * math.Sin(phi+delta)},
		)
		spec.Flows = append(spec.Flows, FlowSpec{
			ID: fmt.Sprintf("F%d", k+1), Path: []string{a, b},
		})
	}
	return spec
}

// GridSpec is the classic R×C grid (200 m spacing) with two horizontal
// and two vertical cross flows (fewer when the grid is too small).
func GridSpec(rows, cols int) NetworkSpec {
	spec := NetworkSpec{}
	name := func(r, c int) string { return fmt.Sprintf("g%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			spec.Nodes = append(spec.Nodes, NodeSpec{Name: name(r, c), X: float64(c) * 200, Y: float64(r) * 200})
		}
	}
	hFlows := min(2, rows)
	vFlows := min(2, cols)
	for i := 0; i < hFlows; i++ {
		r := i * rows / hFlows
		path := make([]string, cols)
		for c := 0; c < cols; c++ {
			path[c] = name(r, c)
		}
		spec.Flows = append(spec.Flows, FlowSpec{ID: fmt.Sprintf("H%d", i+1), Path: path})
	}
	for i := 0; i < vFlows; i++ {
		c := i * cols / vFlows
		path := make([]string, rows)
		for r := 0; r < rows; r++ {
			path[r] = name(r, c)
		}
		spec.Flows = append(spec.Flows, FlowSpec{ID: fmt.Sprintf("V%d", i+1), Path: path})
	}
	return spec
}

// ParkingLotSpec is an N-hop chain flow crossed by single-hop flows at
// roughly every other relay.
func ParkingLotSpec(hops int) NetworkSpec {
	spec := NetworkSpec{}
	names := make([]string, hops+1)
	for i := 0; i <= hops; i++ {
		names[i] = fmt.Sprintf("m%d", i)
		spec.Nodes = append(spec.Nodes, NodeSpec{Name: names[i], X: float64(i) * 200})
	}
	spec.Flows = append(spec.Flows, FlowSpec{ID: "L", Path: names})
	cross := max(1, (hops-1)/2)
	for i := 0; i < cross; i++ {
		at := 1 + i*(hops-1)/cross
		src := fmt.Sprintf("c%d", i+1)
		spec.Nodes = append(spec.Nodes, NodeSpec{Name: src, X: float64(at) * 200, Y: 240})
		spec.Flows = append(spec.Flows, FlowSpec{
			ID: fmt.Sprintf("X%d", i+1), Path: []string{src, names[at]},
		})
	}
	return spec
}
