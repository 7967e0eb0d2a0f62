package contention

// The seed's slice-based Bron–Kerbosch is retained here as a naive
// reference implementation: the bitset rewrite in cliques.go must
// produce exactly equal output — order included — on every graph. The
// randomized cross-check below exercises both enumeration entry points
// over dozens of seeded random graphs up to ~200 vertices.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// refMaximalCliques is the seed implementation of MaximalCliques,
// queried through the public Adjacent accessor.
func refMaximalCliques(g *Graph) []Clique {
	n := g.NumVertices()
	var out []Clique
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	refBronKerbosch(g, nil, p, nil, &out)
	for _, c := range out {
		sort.Ints(c)
	}
	sort.Slice(out, func(a, b int) bool { return lessIntSlice(out[a], out[b]) })
	return out
}

func refBronKerbosch(g *Graph, r, p, x []int, out *[]Clique) {
	if len(p) == 0 && len(x) == 0 {
		clique := make(Clique, len(r))
		copy(clique, r)
		*out = append(*out, clique)
		return
	}
	pivot, best := -1, -1
	for _, cand := range [][]int{p, x} {
		for _, u := range cand {
			cnt := 0
			for _, v := range p {
				if g.Adjacent(u, v) {
					cnt++
				}
			}
			if cnt > best {
				best = cnt
				pivot = u
			}
		}
	}
	var candidates []int
	for _, v := range p {
		if pivot == -1 || !g.Adjacent(pivot, v) {
			candidates = append(candidates, v)
		}
	}
	for _, v := range candidates {
		var np, nx []int
		for _, u := range p {
			if g.Adjacent(v, u) {
				np = append(np, u)
			}
		}
		for _, u := range x {
			if g.Adjacent(v, u) {
				nx = append(nx, u)
			}
		}
		nr := make([]int, len(r)+1)
		copy(nr, r)
		nr[len(r)] = v
		refBronKerbosch(g, nr, np, nx, out)
		for i, u := range p {
			if u == v {
				p = append(p[:i:i], p[i+1:]...)
				break
			}
		}
		x = append(x, v)
	}
}

// refCliquesContaining filters the global reference enumeration, which
// the seed proved equivalent to its neighborhood-local construction.
func refCliquesContaining(g *Graph, v int) []Clique {
	if v < 0 || v >= g.NumVertices() {
		return nil
	}
	var out []Clique
	for _, c := range refMaximalCliques(g) {
		for _, u := range c {
			if u == v {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// randomRefGraph builds a seeded Erdős–Rényi contention graph with n
// single-hop flows as vertices.
func randomRefGraph(tb testing.TB, rng *rand.Rand, n int, p float64) *Graph {
	tb.Helper()
	var subs []flow.Subflow
	for i := 0; i < n; i++ {
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", i)), 1,
			[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
		if err != nil {
			tb.Fatal(err)
		}
		subs = append(subs, f.Subflows()...)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g, err := NewGraphFromEdges(subs, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestMaximalCliquesMatchesReference cross-checks the bitset
// enumeration against the retained seed implementation on ≥50 seeded
// random graphs of up to ~200 vertices, requiring exact equality —
// order included.
func TestMaximalCliquesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	for trial := 0; trial < 56; trial++ {
		n := 2 + rng.Intn(199)
		p := 4.0/float64(n) + rng.Float64()*0.12
		if n < 30 {
			p = 0.2 + rng.Float64()*0.5
		}
		g := randomRefGraph(t, rng, n, p)
		got := g.MaximalCliques()
		want := refMaximalCliques(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d p=%.2f): bitset enumeration diverged\n got %d cliques\nwant %d cliques",
				trial, n, p, len(got), len(want))
		}
		// Spot-check the per-vertex local enumeration on a few
		// vertices rather than all n (the reference filter is the
		// expensive side).
		for k := 0; k < 5; k++ {
			v := rng.Intn(n)
			gotV := g.CliquesContaining(v)
			wantV := refCliquesContaining(g, v)
			if !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("trial %d vertex %d: CliquesContaining diverged: got %v want %v",
					trial, v, gotV, wantV)
			}
		}
	}
}

// TestMaximalCliquesDeterministic runs the enumeration repeatedly and
// concurrently (exercising the shared scratch pool) and requires
// byte-identical output every time.
func TestMaximalCliquesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomRefGraph(t, rng, 120, 0.12)
	want := g.MaximalCliques()
	done := make(chan []Clique, 8)
	for w := 0; w < 8; w++ {
		go func() { done <- g.MaximalCliques() }()
	}
	for w := 0; w < 8; w++ {
		if got := <-done; !reflect.DeepEqual(got, want) {
			t.Fatal("concurrent enumeration diverged from sequential result")
		}
	}
}

// TestBronKerboschNoAliasing is the regression test for the seed's
// latent slice-aliasing hazard: bronKerbosch passed append(r, v) to
// sibling recursive calls, which can share a backing array once the
// append reallocates. A windmill graph (one hub, many edge-disjoint
// triangles through it) forces many sibling branches off the shared
// prefix r = [hub]; every reported clique must own its storage.
func TestBronKerboschNoAliasing(t *testing.T) {
	const blades = 40 // hub + 80 leaves: r's backing would realloc repeatedly
	var subs []flow.Subflow
	for i := 0; i <= 2*blades; i++ {
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", i)), 1,
			[]topology.NodeID{topology.NodeID(2 * i), topology.NodeID(2*i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, f.Subflows()...)
	}
	var edges [][2]int
	for b := 0; b < blades; b++ {
		u, v := 1+2*b, 2+2*b
		edges = append(edges, [2]int{0, u}, [2]int{0, v}, [2]int{u, v})
	}
	g, err := NewGraphFromEdges(subs, edges)
	if err != nil {
		t.Fatal(err)
	}
	got := g.MaximalCliques()
	want := refMaximalCliques(g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windmill cliques diverged: got %v want %v", got, want)
	}
	if len(got) != blades {
		t.Fatalf("windmill should have %d maximal cliques, got %d", blades, len(got))
	}
	// Scribbling over one clique must not disturb any other: shared
	// backing arrays between siblings would.
	snapshot := make([]Clique, len(got))
	for i, c := range got {
		snapshot[i] = append(Clique(nil), c...)
	}
	for i := range got {
		for j := range got[i] {
			got[i][j] = -1
		}
		for k := range got {
			if k != i && !reflect.DeepEqual(got[k], snapshot[k]) {
				t.Fatalf("mutating clique %d corrupted clique %d: aliased backing arrays", i, k)
			}
		}
		copy(got[i], snapshot[i])
	}
}

// TestGreedyColoringScratchReuse pins the colouring against adjacency
// after the scratch-slice rewrite: stale marks from a previous vertex
// would produce either an invalid colouring or needlessly many
// colours.
func TestGreedyColoringScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		g := randomRefGraph(t, rng, n, 0.15)
		colors, num := g.GreedyColoring()
		maxDeg := 0
		for v := 0; v < n; v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
			for u := v + 1; u < n; u++ {
				if g.Adjacent(v, u) && colors[v] == colors[u] {
					t.Fatalf("trial %d: adjacent %d,%d share colour %d", trial, v, u, colors[v])
				}
			}
		}
		if num > maxDeg+1 {
			t.Fatalf("trial %d: %d colours exceeds greedy bound Δ+1 = %d", trial, num, maxDeg+1)
		}
	}
}

// benchGraph builds the shared benchmark topology so the reference
// and bitset benchmarks below time the exact same enumeration.
func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	return randomRefGraph(b, rand.New(rand.NewSource(int64(n))), n, 0.35)
}

// BenchmarkReferenceCliques128 times the retained seed implementation
// on the same graph as BenchmarkBitsetCliques128, so the speedup of
// the bitset rewrite can be read straight off `go test -bench`.
func BenchmarkReferenceCliques128(b *testing.B) {
	g := benchGraph(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMaximalCliques(g)
	}
}

func BenchmarkBitsetCliques128(b *testing.B) {
	g := benchGraph(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaximalCliques()
	}
}

func BenchmarkReferenceCliques256(b *testing.B) {
	g := benchGraph(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refMaximalCliques(g)
	}
}

func BenchmarkBitsetCliques256(b *testing.B) {
	g := benchGraph(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MaximalCliques()
	}
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
