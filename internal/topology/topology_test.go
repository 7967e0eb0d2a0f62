package topology

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func line(t *testing.T, spacing float64, n int) *Topology {
	t.Helper()
	b := NewBuilder(DefaultRange, 0)
	for i := 0; i < n; i++ {
		b.Add(string(rune('A'+i)), float64(i)*spacing, 0)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuilderDuplicate(t *testing.T) {
	_, err := NewBuilder(250, 0).Add("A", 0, 0).Add("A", 1, 1).Build()
	if !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
}

func TestBuilderBadRange(t *testing.T) {
	if _, err := NewBuilder(0, 0).Build(); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero range: err = %v", err)
	}
	if _, err := NewBuilder(-5, 0).Build(); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative range: err = %v", err)
	}
	if _, err := NewBuilder(250, 100).Build(); !errors.Is(err, ErrBadRange) {
		t.Fatalf("interference below tx: err = %v", err)
	}
}

func TestInterferenceDefaultsToTx(t *testing.T) {
	topo, err := NewBuilder(250, 0).Add("A", 0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.InterferenceRange() != topo.TxRange() {
		t.Errorf("interference %g != tx %g", topo.InterferenceRange(), topo.TxRange())
	}
}

func TestNeighbors(t *testing.T) {
	topo := line(t, 200, 4) // A-B-C-D; in range up to 250: adjacent only
	a, _ := topo.Lookup("A")
	b, _ := topo.Lookup("B")
	c, _ := topo.Lookup("C")
	d, _ := topo.Lookup("D")
	if got := topo.Neighbors(a); len(got) != 1 || got[0] != b {
		t.Errorf("Neighbors(A) = %v", got)
	}
	if got := topo.Neighbors(b); len(got) != 2 || got[0] != a || got[1] != c {
		t.Errorf("Neighbors(B) = %v", got)
	}
	if !topo.InTxRange(c, d) || topo.InTxRange(a, c) {
		t.Errorf("range predicates wrong: C-D %v, A-C %v", topo.InTxRange(c, d), topo.InTxRange(a, c))
	}
}

func TestBoundaryIsInRange(t *testing.T) {
	topo, err := NewBuilder(250, 0).Add("A", 0, 0).Add("B", 250, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !topo.InTxRange(0, 1) {
		t.Error("nodes exactly at range should be connected")
	}
}

func TestLookupUnknown(t *testing.T) {
	topo := line(t, 200, 2)
	if _, err := topo.Lookup("Z"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := topo.Node(99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Node(99) err = %v", err)
	}
	if got := topo.Name(99); got == "" {
		t.Error("Name of bad ID should still render")
	}
}

func TestConnected(t *testing.T) {
	if !line(t, 200, 5).Connected() {
		t.Error("200 m line should be connected")
	}
	if line(t, 300, 3).Connected() {
		t.Error("300 m line should be disconnected")
	}
	empty, err := NewBuilder(250, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Connected() {
		t.Error("empty topology is trivially connected")
	}
}

func TestNamesOrder(t *testing.T) {
	topo := line(t, 200, 3)
	names := topo.Names()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Errorf("Names = %v", names)
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	topo, err := Random(RandomConfig{Nodes: 20, Width: 800, Height: 800, Connect: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 20 {
		t.Fatalf("nodes = %d", topo.NumNodes())
	}
	if !topo.Connected() {
		t.Error("requested connected topology")
	}
}

func TestRandomValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Random(RandomConfig{Nodes: 0, Width: 100, Height: 100}, rng); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := Random(RandomConfig{Nodes: 3, Width: 0, Height: 100}, rng); err == nil {
		t.Error("zero area should fail")
	}
}

func TestRandomNeighborSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	topo, err := Random(RandomConfig{Nodes: 30, Width: 1000, Height: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		for _, j := range topo.Neighbors(NodeID(i)) {
			found := false
			for _, k := range topo.Neighbors(j) {
				if k == NodeID(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d", i, j)
			}
		}
	}
}

func TestBuilderNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, r := range [][2]float64{{nan, 0}, {inf, 0}, {250, nan}, {250, inf}} {
		if _, err := NewBuilder(r[0], r[1]).Add("A", 0, 0).Build(); !errors.Is(err, ErrBadRange) {
			t.Errorf("ranges %v: err = %v, want ErrBadRange", r, err)
		}
	}
	for _, p := range [][2]float64{{nan, 0}, {0, nan}, {inf, 0}, {0, -inf}} {
		if _, err := NewBuilder(250, 0).Add("A", 0, 0).Add("B", p[0], p[1]).Build(); !errors.Is(err, ErrBadPosition) {
			t.Errorf("position %v: err = %v, want ErrBadPosition", p, err)
		}
	}
}

// Finite coordinates whose span overflows float64 build in bounded
// time with the right links.
func TestBuildOverflowingSpan(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		topo, err := NewBuilder(250, 0).
			Add("A", -1e308, 0).Add("B", -1e308, 200).
			Add("C", 1e308, 0).Add("D", 1e308, 200).Build()
		if err != nil {
			t.Error(err)
			return
		}
		want := [][]NodeID{{1}, {0}, {3}, {2}}
		for id, w := range want {
			if got := topo.Neighbors(NodeID(id)); !slices.Equal(got, w) {
				t.Errorf("node %d neighbours %v, want %v", id, got, w)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Build did not return within 5 s")
	}
}
