package contention

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// chainGraph builds the contention graph of one straight flow with
// the given hop count at 200 m spacing.
func chainGraph(t *testing.T, hops int) (*Graph, *topology.Topology) {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultRange, 0)
	for i := 0; i <= hops; i++ {
		b.Add(string(rune('A'+i)), float64(i)*200, 0)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]topology.NodeID, hops+1)
	for i := range ids {
		ids[i] = topology.NodeID(i)
	}
	f, err := flow.New("F1", 1, ids)
	if err != nil {
		t.Fatal(err)
	}
	set, err := flow.NewSet(f)
	if err != nil {
		t.Fatal(err)
	}
	return BuildGraph(topo, set), topo
}

func TestContendSharedNode(t *testing.T) {
	g, _ := chainGraph(t, 2)
	if !g.Adjacent(0, 1) {
		t.Error("consecutive subflows share a node and must contend")
	}
}

func TestChainContentionStructure(t *testing.T) {
	// At 200 m spacing, skip-one neighbors (e.g. B and C of subflows
	// (A,B) and (C,D)) are in range, so subflows up to two apart
	// contend; three apart do not. This matches the paper's Fig. 6
	// clique structure (3·r̂1 ≤ B for the four-hop flow).
	g, _ := chainGraph(t, 5)
	for i := 0; i < g.NumVertices(); i++ {
		for j := i + 1; j < g.NumVertices(); j++ {
			want := j-i <= 2
			if g.Adjacent(i, j) != want {
				t.Errorf("hops %d,%d adjacency = %v, want %v", i, j, g.Adjacent(i, j), want)
			}
		}
	}
}

func TestChainCliques(t *testing.T) {
	g, _ := chainGraph(t, 4)
	cliques := g.MaximalCliques()
	// Path-power graph: triples of consecutive subflows.
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", cliques)
	}
	for _, c := range cliques {
		if len(c) != 3 {
			t.Errorf("clique %v should have 3 members", c)
		}
		if !g.IsClique(c) {
			t.Errorf("reported clique %v is not a clique", c)
		}
	}
}

func TestNewGraphFromEdgesValidation(t *testing.T) {
	f, _ := flow.New("F", 1, []topology.NodeID{0, 1})
	subs := f.Subflows()
	if _, err := NewGraphFromEdges(subs, [][2]int{{0, 1}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := NewGraphFromEdges(subs, [][2]int{{0, 0}}); err == nil {
		t.Error("self edge should fail")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, _ := chainGraph(t, 4)
	sub := g.InducedSubgraph([]int{0, 2, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("vertices = %d", sub.NumVertices())
	}
	// Original adjacency: 0-2 adjacent (skip one), 2-3 adjacent,
	// 0-3 not.
	if !sub.Adjacent(0, 1) || !sub.Adjacent(1, 2) || sub.Adjacent(0, 2) {
		t.Error("induced adjacency wrong")
	}
}

func TestIndependentSets(t *testing.T) {
	g, _ := chainGraph(t, 5)
	sets := g.MaximalIndependentSets()
	if len(sets) == 0 {
		t.Fatal("no independent sets")
	}
	for _, s := range sets {
		if !g.IsIndependentSet(s) {
			t.Errorf("set %v is not independent", s)
		}
	}
	// Hops 0 and 3 can transmit concurrently in a 5-hop chain.
	found := false
	for _, s := range sets {
		has0, has3 := false, false
		for _, v := range s {
			if v == 0 {
				has0 = true
			}
			if v == 3 {
				has3 = true
			}
		}
		if has0 && has3 {
			found = true
		}
	}
	if !found {
		t.Error("expected an independent set containing hops 0 and 3")
	}
}

func TestComplementInvolution(t *testing.T) {
	g, _ := chainGraph(t, 5)
	cc := g.Complement().Complement()
	for i := 0; i < g.NumVertices(); i++ {
		for j := 0; j < g.NumVertices(); j++ {
			if g.Adjacent(i, j) != cc.Adjacent(i, j) {
				t.Fatalf("complement not involutive at (%d,%d)", i, j)
			}
		}
	}
}

// TestBronKerboschAgainstBruteForce cross-checks maximal clique
// enumeration on random graphs against a brute-force search.
func TestBronKerboschAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9) // up to 10 vertices
		var subs []flow.Subflow
		for i := 0; i < n; i++ {
			f, _ := flow.New(flow.ID(string(rune('A'+i))), 1,
				[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
			subs = append(subs, f.Subflows()...)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g, err := NewGraphFromEdges(subs, edges)
		if err != nil {
			t.Fatal(err)
		}
		got := g.MaximalCliques()
		want := bruteMaximalCliques(g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d cliques, brute force %d", trial, len(got), len(want))
		}
		seen := make(map[string]bool)
		for _, c := range got {
			seen[cliqueKey(c)] = true
		}
		for _, c := range want {
			if !seen[cliqueKey(c)] {
				t.Fatalf("trial %d: missing clique %v", trial, c)
			}
		}
	}
}

func cliqueKey(c []int) string {
	key := ""
	for _, v := range c {
		key += string(rune('0'+v)) + ","
	}
	return key
}

// bruteMaximalCliques enumerates all subsets and keeps maximal
// cliques.
func bruteMaximalCliques(g *Graph) [][]int {
	n := g.NumVertices()
	var cliques [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var set []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if !g.IsClique(set) {
			continue
		}
		// Maximal: no vertex outside adjacent to all inside.
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				continue
			}
			all := true
			for _, u := range set {
				if !g.Adjacent(u, v) {
					all = false
					break
				}
			}
			if all {
				maximal = false
				break
			}
		}
		if maximal {
			cliques = append(cliques, set)
		}
	}
	return cliques
}

func TestGreedyColoringValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		var subs []flow.Subflow
		for i := 0; i < n; i++ {
			f, _ := flow.New(flow.ID(string(rune('A'+i))), 1,
				[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
			subs = append(subs, f.Subflows()...)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g, err := NewGraphFromEdges(subs, edges)
		if err != nil {
			t.Fatal(err)
		}
		colors, num := g.GreedyColoring()
		for i := 0; i < n; i++ {
			if colors[i] < 0 || colors[i] >= num {
				t.Fatalf("color %d out of range", colors[i])
			}
			for j := i + 1; j < n; j++ {
				if g.Adjacent(i, j) && colors[i] == colors[j] {
					t.Fatalf("adjacent %d,%d share color", i, j)
				}
			}
		}
		classes := make([][]int, num)
		for v, c := range colors {
			classes[c] = append(classes[c], v)
		}
		total := 0
		for _, cl := range classes {
			total += len(cl)
			if !g.IsIndependentSet(cl) {
				t.Fatalf("color class %v not independent", cl)
			}
		}
		if total != n {
			t.Fatalf("classes cover %d of %d vertices", total, n)
		}
	}
}

func TestNumEdges(t *testing.T) {
	g, _ := chainGraph(t, 3)
	// Subflows 0,1,2: edges 0-1, 1-2, 0-2.
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", g.NumEdges())
	}
	if g.Degree(1) != 2 {
		t.Errorf("degree(1) = %d", g.Degree(1))
	}
}

// BenchmarkMaximalCliquesLarge exercises Bron–Kerbosch on a dense
// random contention graph far larger than the paper's scenarios.
func BenchmarkMaximalCliquesLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const n = 60
	var subs []flow.Subflow
	for i := 0; i < n; i++ {
		f, _ := flow.New(flow.ID(fmt.Sprintf("F%d", i)), 1,
			[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
		subs = append(subs, f.Subflows()...)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g, err := NewGraphFromEdges(subs, edges)
	if err != nil {
		b.Fatal(err)
	}
	var cliques int
	for i := 0; i < b.N; i++ {
		cliques = len(g.MaximalCliques())
	}
	b.ReportMetric(float64(cliques), "cliques")
}

// CliquesContaining returns the maximal cliques of the graph that
// contain vertex v, computed from v's closed neighborhood only: the
// search is rooted at R = {v}, P = N(v), so it never reads adjacency
// outside N[v]. This is the local-constructibility property the
// paper's distributed first phase relies on (citing Huang & Bensaou):
// every maximal clique through a subflow lies inside that subflow's
// closed neighborhood, whose members all have an endpoint within
// transmission range of the subflow's endpoints and are therefore
// overhearable by its transmitter (directly or via one-hop exchange).
// The result equals filtering MaximalCliques for v (see
// TestCliquesContainingIsLocal) but needs no global knowledge, which is
// what Live's incremental clique rules (DESIGN §9) rest on.
func (g *Graph) CliquesContaining(v int) []Clique {
	if v < 0 || v >= len(g.subflows) {
		return nil
	}
	sc := acquireScratch(len(g.subflows))
	var out []Clique
	sc.p[1].copyFrom(g.rows[v])
	sc.x[1].zero()
	sc.r = append(sc.r[:0], v)
	g.bk(sc, 1, func(r []int) {
		c := make(Clique, len(r))
		copy(c, r)
		out = append(out, c)
	})
	sc.r = sc.r[:0]
	releaseScratch(sc)
	for _, c := range out {
		slices.Sort(c)
	}
	return canonicalCliques(out)
}

// TestCliquesContainingIsLocal proves the locality property: cliques
// built from a vertex's closed neighborhood alone equal the global
// maximal cliques containing it.
func TestCliquesContainingIsLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		var subs []flow.Subflow
		for i := 0; i < n; i++ {
			f, _ := flow.New(flow.ID(fmt.Sprintf("F%d", i)), 1,
				[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
			subs = append(subs, f.Subflows()...)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g, err := NewGraphFromEdges(subs, edges)
		if err != nil {
			t.Fatal(err)
		}
		global := g.MaximalCliques()
		for v := 0; v < n; v++ {
			var want []Clique
			for _, c := range global {
				for _, u := range c {
					if u == v {
						want = append(want, c)
						break
					}
				}
			}
			got := g.CliquesContaining(v)
			if len(got) != len(want) {
				t.Fatalf("trial %d vertex %d: %d local cliques vs %d global", trial, v, len(got), len(want))
			}
			seen := make(map[string]bool, len(got))
			for _, c := range got {
				seen[cliqueKey(c)] = true
			}
			for _, c := range want {
				if !seen[cliqueKey(c)] {
					t.Fatalf("trial %d vertex %d: missing clique %v", trial, v, c)
				}
			}
		}
	}
}

func TestCliquesContainingBadVertex(t *testing.T) {
	g, _ := chainGraph(t, 2)
	if got := g.CliquesContaining(-1); got != nil {
		t.Errorf("negative vertex: %v", got)
	}
	if got := g.CliquesContaining(99); got != nil {
		t.Errorf("out of range vertex: %v", got)
	}
}

// IsIndependentSet reports whether no two of the given vertices are
// adjacent.
func (g *Graph) IsIndependentSet(vertices []int) bool {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if g.rows[vertices[i]].has(vertices[j]) {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether all the given vertices are pairwise
// adjacent.
func (g *Graph) IsClique(vertices []int) bool {
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			if !g.rows[vertices[i]].has(vertices[j]) {
				return false
			}
		}
	}
	return true
}
