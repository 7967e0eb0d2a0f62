package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// bruteWithin is the reference for every grid query: a linear scan with
// the same boundary-inclusive predicate.
func bruteWithin(pts []Point, p Point, r float64) []int {
	var out []int
	for i := range pts {
		if p.InRange(pts[i], r) {
			out = append(out, i)
		}
	}
	return out
}

func sortedInts(xs []int32) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGrid()
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		side := 50 + rng.Float64()*2000
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		cell := 10 + rng.Float64()*500
		g.Rebuild(pts, cell)
		for q := 0; q < 10; q++ {
			p := Point{X: rng.Float64()*side*1.4 - side*0.2, Y: rng.Float64()*side*1.4 - side*0.2}
			r := rng.Float64() * side
			want := bruteWithin(pts, p, r)
			got := sortedInts(g.AppendWithin(p, r, nil))
			if !equalInts(got, want) {
				t.Fatalf("trial %d: AppendWithin(%v, %g) = %v, want %v", trial, p, r, got, want)
			}
		}
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	pts := []Point{{0, 0}, {250, 0}, {250.0001, 0}}
	g := NewGrid()
	g.Rebuild(pts, 250)
	got := sortedInts(g.AppendWithin(Point{0, 0}, 250, nil))
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("boundary query = %v, want [0 1]", got)
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := NewGrid()
	g.Rebuild(nil, 100)
	if got := g.AppendWithin(Point{0, 0}, 50, nil); len(got) != 0 {
		t.Fatalf("empty grid query = %v", got)
	}
	// Coincident points, zero and negative radii.
	pts := []Point{{5, 5}, {5, 5}, {5, 5}}
	g.Rebuild(pts, 100)
	if got := sortedInts(g.AppendWithin(Point{5, 5}, 0, nil)); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("zero-radius query = %v", got)
	}
	if got := g.AppendWithin(Point{5, 5}, -1, nil); len(got) != 0 {
		t.Fatalf("negative-radius query = %v", got)
	}
	// A query disk entirely off the bounding box.
	if got := g.AppendWithin(Point{1e6, 1e6}, 10, nil); len(got) != 0 {
		t.Fatalf("far query = %v", got)
	}
}

func TestGridRebuildReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGrid()
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		g.Rebuild(pts, 250)
		p := pts[rng.Intn(n)]
		want := bruteWithin(pts, p, 250)
		got := sortedInts(g.AppendWithin(p, 250, nil))
		if !equalInts(got, want) {
			t.Fatalf("round %d: reuse query mismatch: %v vs %v", round, got, want)
		}
	}
}

// Pathological spreads must not explode the cell array: the effective
// cell enlarges to keep the count bounded while results stay exact.
func TestGridCellBudget(t *testing.T) {
	pts := []Point{{0, 0}, {1e9, 1e9}, {1e9, 0}, {3, 4}}
	g := NewGrid()
	g.Rebuild(pts, 1) // naive would want ~1e18 cells
	if nc := g.cols * g.rows; nc > maxCellFactor*len(pts)+64 {
		t.Fatalf("cell budget exceeded: %d cells", nc)
	}
	got := sortedInts(g.AppendWithin(Point{0, 0}, 10, nil))
	if !equalInts(got, []int{0, 3}) {
		t.Fatalf("budget-capped query = %v, want [0 3]", got)
	}
}

// A span wider than math.MaxFloat64 (finite ends, overflowing
// difference) must still index in bounded time with exact results,
// and non-finite points must not hang Rebuild either.
func TestGridOverflowingSpan(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		pts := []Point{{-1e308, 0}, {-1e308, 200}, {1e308, 0}, {1e308, 200}, {0, 0}, {math.MaxFloat64, -math.MaxFloat64}}
		for _, cell := range []float64{250, 1e-3, 1e300} {
			g := NewGrid()
			g.Rebuild(pts, cell)
			if nc := g.cols * g.rows; nc < 1 || nc > maxCellFactor*len(pts)+64 {
				t.Errorf("cell %g: %d cells", cell, nc)
			}
			for _, p := range pts {
				for _, r := range []float64{0, 250, 1e6} {
					got := sortedInts(g.AppendWithin(p, r, nil))
					if want := bruteWithin(pts, p, r); !equalInts(got, want) {
						t.Errorf("cell %g: within %g of %v = %v, want %v", cell, r, p, got, want)
					}
				}
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			NewGrid().Rebuild([]Point{{bad, 0}, {0, 0}, {1, bad}}, 250)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Rebuild did not return within 5 s")
	}
}
