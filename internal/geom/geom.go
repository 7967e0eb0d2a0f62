// Package geom provides the planar geometry primitives used by the
// wireless network model: points, distances and range predicates.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the 2-D plane, in meters.
type Point struct {
	X float64
	Y float64
}

// String renders the point as "(x, y)".
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It is
// cheaper than Dist and sufficient for range comparisons.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// InRange reports whether q is within radius r of p. The boundary is
// inclusive: a node exactly r meters away is in range.
func (p Point) InRange(q Point, r float64) bool {
	if r < 0 {
		return false
	}
	d2, r2 := p.Dist2(q), r*r
	if !math.IsInf(d2, 1) || !math.IsInf(r2, 1) || math.IsInf(r, 1) {
		return d2 <= r2
	}
	// Both squares overflow (r above ~1.3e154): +Inf ≤ +Inf would say
	// yes at any distance, so compare in units of the largest
	// magnitude instead.
	u := max(math.Abs(p.X), math.Abs(p.Y), math.Abs(q.X), math.Abs(q.Y), r)
	d := Point{p.X / u, p.Y / u}.Dist2(Point{q.X / u, q.Y / u})
	return d <= (r/u)*(r/u)
}

// Add returns the translation of p by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}
