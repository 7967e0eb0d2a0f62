package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// RadioComponents returns the interference-range connected components
// as freshly allocated slices, components ordered by smallest member,
// members ascending. It is the allocation-free build's reference
// oracle: a plain BFS over the all-pairs interference predicate.
func (t *Topology) RadioComponents() [][]NodeID {
	n := len(t.nodes)
	seen := make([]bool, n)
	var out [][]NodeID
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []NodeID{NodeID(s)}
		for k := 0; k < len(comp); k++ {
			u := comp[k]
			for v := 0; v < n; v++ {
				if seen[v] || v == int(u) {
					continue
				}
				if t.nodes[u].Pos.InRange(t.nodes[v].Pos, t.infRange) {
					seen[v] = true
					comp = append(comp, NodeID(v))
				}
			}
		}
		slicesSortNodeIDs(comp)
		out = append(out, comp)
	}
	return out
}

func slicesSortNodeIDs(s []NodeID) {
	// Insertion sort: oracle-only path, component sizes are small in
	// tests and clarity beats pulling in another sort instantiation.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// buildLine places n nodes on a horizontal line with the given spacing
// and radio ranges.
func buildLine(t *testing.T, n int, spacing, txRange, infRange float64) *Topology {
	t.Helper()
	b := NewBuilder(txRange, infRange)
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("n%d", i), float64(i)*spacing, 0)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestInTxRangeHugeRange: with a range whose square overflows, two
// nodes 1e300 m apart are out of range of each other and a third
// 1e150 m from the first is in range.
func TestInTxRangeHugeRange(t *testing.T) {
	b := NewBuilder(1e200, 1e200)
	b.Add("a", 0, 0)
	b.Add("far", 1e300, 0)
	b.Add("near", 0, 1e150)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.InTxRange(0, 1) {
		t.Error("nodes 1e300 m apart are in range of a 1e200 m radio")
	}
	if !topo.InTxRange(0, 2) {
		t.Error("nodes 1e150 m apart are out of range of a 1e200 m radio")
	}
}

// sameComponents compares a RadioComponentSet against oracle output.
func sameComponents(cs *RadioComponentSet, want [][]NodeID) bool {
	if cs.Len() != len(want) {
		return false
	}
	for c := range want {
		got := cs.Component(c)
		if len(got) != len(want[c]) {
			return false
		}
		for i := range got {
			if got[i] != want[c][i] {
				return false
			}
		}
	}
	return true
}

// unionFindComponents is a second, independent oracle: a textbook
// union-find over the all-pairs carrier-sense predicate, with
// components grouped by smallest member and members ascending — the
// exact contract AppendRadioComponents documents.
func unionFindComponents(t *Topology) [][]NodeID {
	n := t.NumNodes()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.InInterferenceRange(NodeID(i), NodeID(j)) {
				parent[find(i)] = find(j)
			}
		}
	}
	byRoot := make(map[int][]NodeID)
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], NodeID(i))
	}
	out := make([][]NodeID, len(order))
	for c, r := range order {
		out[c] = byRoot[r] // ascending: appended in node-ID order
	}
	return out
}

// TestRadioComponentsTable pins the boundary cases: chains split
// exactly where the interference gap opens, a windmill (hub touching
// otherwise-disjoint blades) is one component, and interference range
// beyond tx range merges tx-disconnected clusters.
func TestRadioComponentsTable(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Topology
		want  [][]NodeID
	}{
		{
			// 5-node chain at 200m spacing, 250m range: one component.
			name:  "chain-connected",
			build: func(t *testing.T) *Topology { return buildLine(t, 5, 200, 250, 250) },
			want:  [][]NodeID{{0, 1, 2, 3, 4}},
		},
		{
			// Spacing beyond the range splits every link.
			name:  "chain-singletons",
			build: func(t *testing.T) *Topology { return buildLine(t, 4, 300, 250, 250) },
			want:  [][]NodeID{{0}, {1}, {2}, {3}},
		},
		{
			// Two 2-node clusters 1000m apart.
			name: "two-clusters",
			build: func(t *testing.T) *Topology {
				b := NewBuilder(250, 250)
				b.Add("a0", 0, 0)
				b.Add("a1", 200, 0)
				b.Add("b0", 1200, 0)
				b.Add("b1", 1400, 0)
				topo, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return topo
			},
			want: [][]NodeID{{0, 1}, {2, 3}},
		},
		{
			// Windmill: a central hub in range of one node of each of
			// three blades; the blades are mutually out of range but the
			// hub stitches everything into one component.
			name: "windmill",
			build: func(t *testing.T) *Topology {
				b := NewBuilder(250, 250)
				b.Add("hub", 0, 0)
				b.Add("e0", 240, 0)
				b.Add("e0b", 480, 0)
				b.Add("e1", -240, 0)
				b.Add("e1b", -480, 0)
				b.Add("e2", 0, 240)
				b.Add("e2b", 0, 480)
				topo, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return topo
			},
			want: [][]NodeID{{0, 1, 2, 3, 4, 5, 6}},
		},
		{
			// Exactly at range: InRange is inclusive, so a 250m gap at
			// 250m range still connects.
			name:  "boundary-inclusive",
			build: func(t *testing.T) *Topology { return buildLine(t, 2, 250, 250, 250) },
			want:  [][]NodeID{{0, 1}},
		},
		{
			// Carrier-sense beyond tx range: two clusters out of tx
			// range but within interference range are ONE radio
			// component — they cannot be simulated independently.
			name: "inf-range-merges",
			build: func(t *testing.T) *Topology {
				b := NewBuilder(250, 550)
				b.Add("a0", 0, 0)
				b.Add("a1", 200, 0)
				b.Add("b0", 700, 0)
				b.Add("b1", 900, 0)
				topo, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return topo
			},
			want: [][]NodeID{{0, 1, 2, 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.build(t)
			var cs RadioComponentSet
			topo.AppendRadioComponents(&cs)
			if !sameComponents(&cs, tc.want) {
				t.Errorf("components mismatch:\n got: %v\nwant: %v", renderSet(&cs), tc.want)
			}
		})
	}
}

func renderSet(cs *RadioComponentSet) [][]NodeID {
	out := make([][]NodeID, cs.Len())
	for c := range out {
		out[c] = append([]NodeID(nil), cs.Component(c)...)
	}
	return out
}

// TestRadioComponentsOracle cross-checks the allocation-free build
// against two independent references — the BFS oracle and a fresh
// union-find over the pairwise predicate — on random topologies with
// both equal and extended interference ranges.
func TestRadioComponentsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var cs RadioComponentSet // reused across builds on purpose
	for trial := 0; trial < 50; trial++ {
		nodes := 5 + rng.Intn(60)
		infRange := 250.0
		if trial%2 == 1 {
			infRange = 550
		}
		topo, err := Random(RandomConfig{
			Nodes:    nodes,
			Width:    2000,
			Height:   2000,
			TxRange:  250,
			InfRange: infRange,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		topo.AppendRadioComponents(&cs)
		bfs := topo.RadioComponents()
		if !sameComponents(&cs, bfs) {
			t.Fatalf("trial %d: fast build disagrees with BFS oracle:\n got: %v\nwant: %v",
				trial, renderSet(&cs), bfs)
		}
		uf := unionFindComponents(topo)
		if !sameComponents(&cs, uf) {
			t.Fatalf("trial %d: fast build disagrees with union-find oracle:\n got: %v\nwant: %v",
				trial, renderSet(&cs), uf)
		}
	}
}

// TestAppendRadioComponentsAllocs pins the zero-allocation contract of
// the steady-state rebuild, for both the same-range fast path and the
// grid-probing extended-range path.
func TestAppendRadioComponentsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, infRange := range []float64{250, 550} {
		topo, err := Random(RandomConfig{
			Nodes: 80, Width: 2000, Height: 2000, TxRange: 250, InfRange: infRange,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var cs RadioComponentSet
		topo.AppendRadioComponents(&cs) // warm the buffers
		allocs := testing.AllocsPerRun(20, func() {
			topo.AppendRadioComponents(&cs)
		})
		if allocs != 0 {
			t.Errorf("infRange=%g: AppendRadioComponents allocates %.1f per rebuild, want 0", infRange, allocs)
		}
	}
}

// TestSubset checks that induced sub-topologies preserve names,
// positions, ranges and the pairwise predicates, and reject bad member
// lists.
func TestSubset(t *testing.T) {
	b := NewBuilder(250, 500)
	b.Add("a", 0, 0)
	b.Add("b", 200, 0)
	b.Add("c", 400, 0)
	b.Add("d", 2000, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := topo.Subset([]NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 {
		t.Fatalf("subset has %d nodes, want 3", sub.NumNodes())
	}
	for li, g := range []NodeID{0, 1, 2} {
		if sub.Name(NodeID(li)) != topo.Name(g) {
			t.Errorf("local %d name %q != parent %q", li, sub.Name(NodeID(li)), topo.Name(g))
		}
		if sub.Position(NodeID(li)) != topo.Position(g) {
			t.Errorf("local %d position moved", li)
		}
	}
	if !sub.InTxRange(0, 1) || sub.InTxRange(0, 2) {
		t.Error("tx predicate differs from parent")
	}
	if !sub.InInterferenceRange(0, 2) {
		t.Error("interference predicate differs from parent")
	}
	if _, err := topo.Subset([]NodeID{1, 0}); err == nil {
		t.Error("descending member list accepted")
	}
	if _, err := topo.Subset([]NodeID{0, 4}); err == nil {
		t.Error("out-of-range member accepted")
	}
}
