package geom

import "math"

// Grid is a uniform spatial index over a fixed slice of points: the
// bounding box is divided into square cells and point indices are
// bucketed per cell in a compact CSR layout (one offsets array, one
// items array), so a radius query probes only the cells overlapping the
// query disk — 3×3 of them when the radius does not exceed the cell
// size — instead of scanning every point.
//
// A Grid is rebuilt in place with Rebuild, reusing its internal arrays;
// queries allocate nothing. Queries are safe to issue concurrently as
// long as no Rebuild runs at the same time.
type Grid struct {
	pts        []Point // indexed points; aliased, not copied
	cell       float64
	minX, minY float64
	cols, rows int
	// starts has cols*rows+1 entries; the indices of the points in cell
	// c are items[starts[c]:starts[c+1]], in ascending order.
	starts []int32
	items  []int32
	cellOf []int32 // scratch: cell index of each point during Rebuild
}

// NewGrid returns an empty grid; call Rebuild before querying.
func NewGrid() *Grid { return &Grid{} }

// maxCellFactor bounds the total number of cells to roughly
// maxCellFactor·n (+ a small floor): with pathological point spreads a
// fixed cell size could demand an enormous array, so Rebuild enlarges
// the effective cell until the count fits. Queries stay correct because
// they derive the probe window from the query radius, not from an
// assumed cell size.
const maxCellFactor = 4

// Rebuild indexes pts with the given cell size (typically the radio
// interference range). The points slice is aliased: it must not be
// mutated while the grid is queried. A non-positive cell size is
// clamped to an arbitrary positive value; it affects only performance,
// never results.
func (g *Grid) Rebuild(pts []Point, cell float64) {
	g.pts = pts
	n := len(pts)
	if n == 0 {
		g.cols, g.rows = 0, 0
		g.items = g.items[:0]
		return
	}
	if cell <= 0 || math.IsNaN(cell) {
		cell = 1
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	g.cell, g.minX, g.minY = cell, minX, minY
	budget := float64(maxCellFactor*n + 64)
	for {
		cols := math.Floor(g.offset(maxX, minX)) + 1
		rows := math.Floor(g.offset(maxY, minY)) + 1
		if cols*rows <= budget {
			g.cols, g.rows = int(cols), int(rows)
			break
		}
		if math.IsInf(g.cell, 1) {
			// Only a non-finite coordinate gets here: one cell holds
			// every point, so queries still terminate.
			g.cols, g.rows = 1, 1
			break
		}
		g.cell *= 2
	}

	nc := g.cols * g.rows
	if cap(g.starts) < nc+1 {
		g.starts = make([]int32, nc+1)
	} else {
		g.starts = g.starts[:nc+1]
		for i := range g.starts {
			g.starts[i] = 0
		}
	}
	if cap(g.cellOf) < n {
		g.cellOf = make([]int32, n)
	} else {
		g.cellOf = g.cellOf[:n]
	}
	if cap(g.items) < n {
		g.items = make([]int32, n)
	} else {
		g.items = g.items[:n]
	}
	// Counting sort: count per cell, prefix-sum into start offsets, then
	// place in ascending point order so each bucket stays sorted.
	for i, p := range pts {
		c := int32(g.cellIndex(p))
		g.cellOf[i] = c
		g.starts[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.starts[c+1] += g.starts[c]
	}
	for i := range pts {
		c := g.cellOf[i]
		g.items[g.starts[c]] = int32(i)
		g.starts[c]++
	}
	// Placement advanced starts[c] to the end of cell c, which is the
	// start of cell c+1; shift right to restore the offsets.
	copy(g.starts[1:nc+1], g.starts[:nc])
	g.starts[0] = 0
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// offset returns (v − lo)/cell. Halving every operand is exact above
// the subnormal range, so the result has the same bits as the direct
// form, but it stays finite when v − lo overflows: finite coordinates
// more than math.MaxFloat64 apart.
func (g *Grid) offset(v, lo float64) float64 {
	return (v/2 - lo/2) / (g.cell / 2)
}

// cellIndex maps a point inside the bounding box to its cell, clamping
// for the floating-point edge case of a point exactly on the max edge.
func (g *Grid) cellIndex(p Point) int {
	cx := int(g.offset(p.X, g.minX))
	cy := int(g.offset(p.Y, g.minY))
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*g.cols + cx
}

// window computes the inclusive cell range overlapping the disk of
// radius r around p. ok is false when the disk misses the bounding box
// entirely or the radius is negative.
func (g *Grid) window(p Point, r float64) (cx0, cy0, cx1, cy1 int, ok bool) {
	if r < 0 || g.cols == 0 || math.IsNaN(r) {
		return 0, 0, 0, 0, false
	}
	fx0 := math.Floor(g.offset(p.X-r, g.minX))
	fy0 := math.Floor(g.offset(p.Y-r, g.minY))
	fx1 := math.Floor(g.offset(p.X+r, g.minX))
	fy1 := math.Floor(g.offset(p.Y+r, g.minY))
	if fx1 < 0 || fy1 < 0 || fx0 >= float64(g.cols) || fy0 >= float64(g.rows) {
		return 0, 0, 0, 0, false
	}
	cx0, cy0, cx1, cy1 = 0, 0, g.cols-1, g.rows-1
	if fx0 > 0 {
		cx0 = int(fx0)
	}
	if fy0 > 0 {
		cy0 = int(fy0)
	}
	if fx1 < float64(g.cols-1) {
		cx1 = int(fx1)
	}
	if fy1 < float64(g.rows-1) {
		cy1 = int(fy1)
	}
	return cx0, cy0, cx1, cy1, true
}

// AppendWithin appends the indices of every point within radius r of p
// (boundary inclusive, matching Point.InRange) to dst and returns the
// extended slice. Indices are ascending within each probed cell but not
// globally sorted.
func (g *Grid) AppendWithin(p Point, r float64, dst []int32) []int32 {
	cx0, cy0, cx1, cy1, ok := g.window(p, r)
	if !ok {
		return dst
	}
	r2 := r * r
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.cols
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			for _, idx := range g.items[g.starts[c]:g.starts[c+1]] {
				if p.Dist2(g.pts[idx]) <= r2 {
					dst = append(dst, idx)
				}
			}
		}
	}
	return dst
}
