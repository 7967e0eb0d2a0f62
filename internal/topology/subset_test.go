package topology

// Edge cases of Subset and RadioComponentSet beyond the table/oracle
// suite in components_test.go: single-node components, an all-isolated
// field, and subset-of-subset round-trips — the shapes the sharded
// simulator leans on when components degenerate.

import (
	"fmt"
	"testing"
)

// TestSingleNodeComponents pins the degenerate sharding shape: nodes
// out of interference range of everyone form one component each, in
// node-ID order, with pairwise-distinct fingerprints, and each is a
// valid one-node Subset.
func TestSingleNodeComponents(t *testing.T) {
	topo := buildLine(t, 4, 10_000, 250, 500) // 10 km spacing: all isolated
	var cs RadioComponentSet
	topo.AppendRadioComponents(&cs)
	if cs.Len() != 4 {
		t.Fatalf("got %d components, want 4 singletons", cs.Len())
	}
	fps := map[uint64]int{}
	for c := 0; c < cs.Len(); c++ {
		members := cs.Component(c)
		if len(members) != 1 || members[0] != NodeID(c) {
			t.Errorf("component %d = %v, want [%d]", c, members, c)
		}
		fps[cs.Fingerprint(c)]++

		sub, err := topo.Subset(members)
		if err != nil {
			t.Fatalf("singleton subset %d: %v", c, err)
		}
		if sub.NumNodes() != 1 {
			t.Fatalf("singleton subset has %d nodes", sub.NumNodes())
		}
		if sub.Name(0) != topo.Name(NodeID(c)) || sub.Position(0) != topo.Position(NodeID(c)) {
			t.Errorf("singleton subset %d lost identity: %q at %v", c, sub.Name(0), sub.Position(0))
		}
	}
	for fp, n := range fps {
		if n > 1 {
			t.Errorf("fingerprint %#x shared by %d singleton components", fp, n)
		}
	}
}

// TestComponentOfIdleNodes covers a component whose nodes carry no
// flows (every member parked as far as traffic is concerned): it still
// enumerates, subsets, and keeps its fingerprint stable across
// re-enumeration — the sharded simulator relies on this to skip idle
// shards without rebuilding them.
func TestComponentOfIdleNodes(t *testing.T) {
	b := NewBuilder(250, 500)
	// Active cluster: 3 nodes in range.
	b.Add("a0", 0, 0)
	b.Add("a1", 200, 0)
	b.Add("a2", 400, 0)
	// Idle cluster far away: 2 nodes in range of each other only.
	b.Add("i0", 50_000, 0)
	b.Add("i1", 50_200, 0)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cs RadioComponentSet
	topo.AppendRadioComponents(&cs)
	if cs.Len() != 2 {
		t.Fatalf("got %d components, want 2", cs.Len())
	}
	idle := cs.Component(1)
	if len(idle) != 2 || idle[0] != 3 || idle[1] != 4 {
		t.Fatalf("idle component = %v, want [3 4]", idle)
	}
	sub, err := topo.Subset(idle)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.InTxRange(0, 1) {
		t.Error("idle pair lost its link in the subset")
	}
	fp := cs.Fingerprint(1)
	var again RadioComponentSet
	topo.AppendRadioComponents(&again)
	if again.Fingerprint(1) != fp {
		t.Errorf("idle component fingerprint unstable: %#x then %#x", fp, again.Fingerprint(1))
	}
}

// TestSubsetOfSubsetRoundTrip takes a subset of a subset and checks
// that names, positions, and both radio predicates still answer
// exactly as the root topology does for the mapped nodes — and that
// the full-member subset reproduces the root adjacency bit for bit.
func TestSubsetOfSubsetRoundTrip(t *testing.T) {
	topo := buildLine(t, 8, 200, 250, 500)

	outer := []NodeID{0, 2, 3, 5, 7}
	sub, err := topo.Subset(outer)
	if err != nil {
		t.Fatal(err)
	}
	inner := []NodeID{1, 3, 4} // local IDs of sub → global 2, 5, 7
	subsub, err := sub.Subset(inner)
	if err != nil {
		t.Fatal(err)
	}
	global := []NodeID{2, 5, 7}
	for li, g := range global {
		if subsub.Name(NodeID(li)) != topo.Name(g) {
			t.Errorf("round-trip node %d name %q != root %q", li, subsub.Name(NodeID(li)), topo.Name(g))
		}
		if subsub.Position(NodeID(li)) != topo.Position(g) {
			t.Errorf("round-trip node %d position moved", li)
		}
	}
	for i := range global {
		for j := range global {
			if i == j {
				continue
			}
			li, lj, gi, gj := NodeID(i), NodeID(j), global[i], global[j]
			if subsub.InTxRange(li, lj) != topo.InTxRange(gi, gj) {
				t.Errorf("tx(%d,%d) differs from root tx(%d,%d)", li, lj, gi, gj)
			}
			if subsub.InInterferenceRange(li, lj) != topo.InInterferenceRange(gi, gj) {
				t.Errorf("inf(%d,%d) differs from root inf(%d,%d)", li, lj, gi, gj)
			}
		}
	}

	// Identity subset: all members → same adjacency as the root.
	all := make([]NodeID, topo.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	clone, err := topo.Subset(all)
	if err != nil {
		t.Fatal(err)
	}
	if !clone.EqualAdjacency(topo) {
		t.Error("identity subset changed the adjacency")
	}
	if clone.AdjacencyFingerprint() != topo.AdjacencyFingerprint() {
		t.Error("identity subset changed the adjacency fingerprint")
	}

	// Duplicate members are rejected (strictly ascending contract).
	if _, err := topo.Subset([]NodeID{2, 2}); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := topo.Subset([]NodeID{-1}); err == nil {
		t.Error("negative member accepted")
	}
}

// TestSubsetPreservesRanges ensures the induced topology keeps the
// parent's radio ranges rather than re-deriving defaults, across a
// few range combinations.
func TestSubsetPreservesRanges(t *testing.T) {
	for _, ranges := range [][2]float64{{250, 500}, {100, 100}, {300, 900}} {
		tx, inf := ranges[0], ranges[1]
		b := NewBuilder(tx, inf)
		for i := 0; i < 3; i++ {
			b.Add(fmt.Sprintf("n%d", i), float64(i)*0.9*tx, 0)
		}
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := topo.Subset([]NodeID{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := NodeID(0); i < 3; i++ {
			for j := NodeID(0); j < 3; j++ {
				if i == j {
					continue
				}
				if sub.InTxRange(i, j) != topo.InTxRange(i, j) {
					t.Errorf("tx/inf %v: tx(%d,%d) diverged", ranges, i, j)
				}
				if sub.InInterferenceRange(i, j) != topo.InInterferenceRange(i, j) {
					t.Errorf("tx/inf %v: inf(%d,%d) diverged", ranges, i, j)
				}
			}
		}
	}
}
