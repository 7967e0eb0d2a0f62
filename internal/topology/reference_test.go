package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"e2efair/internal/geom"
)

// neighborsNaive recomputes the adjacency lists with the seed's
// all-pairs scan: the reference oracle for the grid-backed build —
// pinned by TestBuildMatchesNaiveReference — and the baseline the
// BenchmarkTopologyBuild* comparisons time.
func (t *Topology) neighborsNaive() [][]NodeID {
	out := make([][]NodeID, len(t.nodes))
	for i := range t.nodes {
		for j := range t.nodes {
			if i == j {
				continue
			}
			if t.nodes[i].Pos.InRange(t.nodes[j].Pos, t.txRange) {
				out[i] = append(out[i], NodeID(j))
			}
		}
		sort.Slice(out[i], func(a, c int) bool { return out[i][a] < out[i][c] })
	}
	return out
}

// randomBuilt places n uniform nodes in a side×side square and builds
// the topology through the grid-backed Build.
func randomBuilt(tb testing.TB, rng *rand.Rand, n int, side, tx, inf float64) *Topology {
	tb.Helper()
	b := NewBuilder(tx, inf)
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("n%d", i), rng.Float64()*side, rng.Float64()*side)
	}
	topo, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// TestBuildMatchesNaiveReference pins the grid-backed neighbor build to
// the retained all-pairs reference across ≥200 randomized trials that
// sweep density from near-isolated to near-complete graphs. The lists
// must be byte-identical: same members, same (ascending) order.
func TestBuildMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 220; trial++ {
		n := 1 + rng.Intn(80)
		// Sweep density: side from ~0.3× to ~12× the tx range.
		side := DefaultRange * (0.3 + rng.Float64()*11.7)
		inf := 0.0
		if rng.Intn(2) == 0 {
			inf = DefaultRange * (1 + rng.Float64())
		}
		topo := randomBuilt(t, rng, n, side, DefaultRange, inf)
		want := topo.neighborsNaive()
		if len(topo.neighbors) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(topo.neighbors), len(want))
		}
		for i := range want {
			got := topo.neighbors[i]
			if len(got) != len(want[i]) {
				t.Fatalf("trial %d node %d: neighbors %v, want %v", trial, i, got, want[i])
			}
			for k := range want[i] {
				if got[k] != want[i][k] {
					t.Fatalf("trial %d node %d: neighbors %v, want %v", trial, i, got, want[i])
				}
			}
		}
	}
}

func TestNodesInRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		side := 100 + rng.Float64()*2000
		topo := randomBuilt(t, rng, n, side, DefaultRange, 0)
		for q := 0; q < 8; q++ {
			p := geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			r := rng.Float64() * side / 2
			got := topo.NodesInRange(p, r)
			var want []NodeID
			for i := 0; i < n; i++ {
				if p.InRange(topo.Position(NodeID(i)), r) {
					want = append(want, NodeID(i))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: NodesInRange = %v, want %v", trial, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d: NodesInRange = %v, want %v", trial, got, want)
				}
			}
		}
	}
}

func TestRandomReturnsNilOnFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two nodes in a huge area with a tiny range: connectivity is
	// essentially impossible, so every placement attempt fails.
	topo, err := Random(RandomConfig{
		Nodes: 2, Width: 1e6, Height: 1e6, TxRange: 1,
		Connect: true, MaxTries: 5,
	}, rng)
	if err == nil {
		t.Fatal("expected a placement failure")
	}
	if topo != nil {
		t.Fatalf("failed Random returned non-nil topology %v", topo)
	}
}

func TestSnapshotterMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 40
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	snap, err := NewSnapshotter(names, DefaultRange, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, n)
	var prev *Topology
	for epoch := 0; epoch < 30; epoch++ {
		for i := range pos {
			pos[i] = geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 1200}
		}
		st, changed, err := snap.Snapshot(pos)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(DefaultRange, 0)
		for i, p := range pos {
			b.Add(names[i], p.X, p.Y)
		}
		bt, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !st.EqualAdjacency(bt) {
			t.Fatalf("epoch %d: snapshot adjacency differs from builder", epoch)
		}
		if st.AdjacencyFingerprint() != bt.AdjacencyFingerprint() {
			t.Fatalf("epoch %d: fingerprints differ for equal adjacency", epoch)
		}
		for i := 0; i < n; i++ {
			if st.Position(NodeID(i)) != pos[i] {
				t.Fatalf("epoch %d: stale position for node %d", epoch, i)
			}
		}
		if prev != nil && changed == prev.EqualAdjacency(st) {
			t.Fatalf("epoch %d: changed=%v inconsistent with adjacency comparison", epoch, changed)
		}
		// Identical positions must return the same object, unchanged.
		again, changed2, err := snap.Snapshot(pos)
		if err != nil {
			t.Fatal(err)
		}
		if again != st || changed2 {
			t.Fatalf("epoch %d: identical positions rebuilt (changed=%v)", epoch, changed2)
		}
		prev = st
	}
}

func TestSnapshotterValidation(t *testing.T) {
	if _, err := NewSnapshotter([]string{"a"}, -1, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("bad range: %v", err)
	}
	if _, err := NewSnapshotter([]string{"a", "a"}, 250, 0); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate: %v", err)
	}
	snap, err := NewSnapshotter([]string{"a", "b"}, 250, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Snapshot([]geom.Point{{X: 1}}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// benchPoints places n points at roughly constant radio density (~10
// expected neighbors at the default range).
func benchPoints(n int, rng *rand.Rand) ([]geom.Point, float64) {
	side := math.Sqrt(float64(n) * 19635)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pts, side
}

func benchmarkTopologyBuild(b *testing.B, n int, naiveToo bool) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := benchPoints(n, rng)
	build := func() *Topology {
		bd := NewBuilder(DefaultRange, 0)
		for i, p := range pts {
			bd.Add(fmt.Sprintf("n%d", i), p.X, p.Y)
		}
		topo, err := bd.Build()
		if err != nil {
			b.Fatal(err)
		}
		return topo
	}
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topo := build()
			if topo.NumNodes() != n {
				b.Fatal("bad build")
			}
		}
	})
	if !naiveToo {
		return
	}
	topo := build()
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nb := topo.neighborsNaive()
			if len(nb) != n {
				b.Fatal("bad build")
			}
		}
	})
}

func BenchmarkTopologyBuild1k(b *testing.B)  { benchmarkTopologyBuild(b, 1000, true) }
func BenchmarkTopologyBuild4k(b *testing.B)  { benchmarkTopologyBuild(b, 4000, true) }
func BenchmarkTopologyBuild10k(b *testing.B) { benchmarkTopologyBuild(b, 10000, false) }
