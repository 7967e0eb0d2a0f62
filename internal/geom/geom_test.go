package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// Midpoint returns the point halfway between p and q.
func (p Point) Midpoint(q Point) Point {
	return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2}
}

func TestDist(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
		{"paper spacing", Point{0, 0}, Point{200, 0}, 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
			}
		})
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsInf(ax, 0) || math.IsNaN(ay) || math.IsInf(ay, 0) ||
			math.IsNaN(bx) || math.IsInf(bx, 0) || math.IsNaN(by) || math.IsInf(by, 0) {
			return true
		}
		// Keep magnitudes sane to avoid overflow in the square.
		const lim = 1e6
		ax, ay = math.Mod(ax, lim), math.Mod(ay, lim)
		bx, by = math.Mod(bx, lim), math.Mod(by, lim)
		p, q := Point{ax, ay}, Point{bx, by}
		d := p.Dist(q)
		return math.Abs(d*d-p.Dist2(q)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyBad(ax, ay, bx, by, cx, cy) {
			return true
		}
		const lim = 1e6
		a := Point{math.Mod(ax, lim), math.Mod(ay, lim)}
		b := Point{math.Mod(bx, lim), math.Mod(by, lim)}
		c := Point{math.Mod(cx, lim), math.Mod(cy, lim)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestInRange(t *testing.T) {
	p := Point{0, 0}
	cases := []struct {
		name string
		q    Point
		r    float64
		want bool
	}{
		{"inside", Point{100, 0}, 250, true},
		{"boundary inclusive", Point{250, 0}, 250, true},
		{"outside", Point{251, 0}, 250, false},
		{"diagonal inside", Point{150, 150}, 250, true},
		{"diagonal outside", Point{200, 200}, 250, false},
		{"negative radius", Point{0, 0}, -1, false},
		{"zero radius same point", Point{0, 0}, 0, true},
		// r*r overflows: the squares no longer compare, the scaled
		// values do.
		{"huge radius, farther point", Point{1e300, 0}, 1e200, false},
		{"huge radius, nearer point", Point{1e200, 1e200}, 2e200, true},
		{"huge radius, both far out", Point{-1e300, 1e300}, 1e300, false},
		{"huge radius, finite distance", Point{1, 1}, 1e200, true},
		{"infinite radius", Point{1e300, 1e300}, math.Inf(1), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := p.InRange(c.q, c.r); got != c.want {
				t.Errorf("InRange(%v, %g) = %v, want %v", c.q, c.r, got, c.want)
			}
		})
	}
}

func TestAddMidpoint(t *testing.T) {
	p := Point{1, 2}
	if got := p.Add(3, 4); got != (Point{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := (Point{0, 0}).Midpoint(Point{10, 20}); got != (Point{5, 10}) {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := (Point{1.5, -2}).String(); got != "(1.5, -2)" {
		t.Errorf("String = %q", got)
	}
}
