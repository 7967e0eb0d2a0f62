package contention

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Clique is a set of pairwise-contending subflow vertices, sorted
// ascending by vertex index.
type Clique []int

// bkScratch holds every buffer Bron–Kerbosch needs: per-depth
// candidate/excluded/branch bitsets carved from one backing array, the
// explicitly-owned clique stack r (each emitted clique is copied out,
// so sibling branches can never alias a shared backing array), and the
// degeneracy-ordering work areas. Scratch is pooled and re-carved only
// when the vertex count changes, so steady-state enumeration performs
// no allocations beyond the result cliques themselves.
type bkScratch struct {
	carved    int // universe size the buffers are carved for (0 = none)
	backing   []uint64
	p, x, c   []bitset // per-depth P, X, and branch-candidate sets
	remaining bitset
	common    bitset // common-neighbor scratch for clique maintenance
	r         []int  // current clique stack, owned by the enumeration
	order     []int
	deg       []int
}

var scratchPool = sync.Pool{New: func() any { return new(bkScratch) }}

func acquireScratch(n int) *bkScratch {
	sc := scratchPool.Get().(*bkScratch)
	sc.carve(n)
	return sc
}

func releaseScratch(sc *bkScratch) { scratchPool.Put(sc) }

// carve (re)slices the buffers for an n-vertex graph, reusing the
// backing array when it is already large enough. Depth never exceeds
// the clique stack (≤ n) plus the root, so n+2 levels always suffice.
func (sc *bkScratch) carve(n int) {
	if sc.carved == n {
		return
	}
	w := wordsFor(n)
	levels := n + 2
	need := (3*levels + 2) * w
	if cap(sc.backing) < need {
		sc.backing = make([]uint64, need)
	}
	b := sc.backing[:need]
	if cap(sc.p) < levels {
		sc.p = make([]bitset, levels)
		sc.x = make([]bitset, levels)
		sc.c = make([]bitset, levels)
	}
	sc.p, sc.x, sc.c = sc.p[:levels], sc.x[:levels], sc.c[:levels]
	for d := 0; d < levels; d++ {
		sc.p[d] = b[d*w : (d+1)*w : (d+1)*w]
		sc.x[d] = b[(levels+d)*w : (levels+d+1)*w : (levels+d+1)*w]
		sc.c[d] = b[(2*levels+d)*w : (2*levels+d+1)*w : (2*levels+d+1)*w]
	}
	sc.remaining = b[3*levels*w : (3*levels+1)*w : (3*levels+1)*w]
	sc.common = b[(3*levels+1)*w : need : need]
	if cap(sc.r) <= n {
		sc.r = make([]int, 0, n+1)
	}
	sc.r = sc.r[:0]
	if cap(sc.order) < n {
		sc.order = make([]int, 0, n)
	}
	if cap(sc.deg) < n {
		sc.deg = make([]int, n)
	}
	sc.carved = n
}

// MaximalCliques enumerates all maximal cliques of the graph using
// Bron–Kerbosch with pivoting over bitsets, rooted at each vertex in
// degeneracy order. These are the paper's "maximum cliques" Ω_1..Ω_J
// (cliques not contained in another clique, Sec. III-A). Isolated
// vertices form singleton cliques. Cliques are returned in a
// deterministic order: each sorted ascending, the list sorted
// lexicographically by member indices. A Live graph builds its first
// cliques here and updates them by intersection (see Live.grow).
func (g *Graph) MaximalCliques() []Clique {
	n := len(g.subflows)
	if n == 0 {
		return nil
	}
	sc := acquireScratch(n)
	defer releaseScratch(sc)
	var cliques []Clique
	g.visitAll(sc, func(r []int) {
		c := slices.Clone(r)
		slices.Sort(c)
		cliques = append(cliques, Clique(c))
	})
	return canonicalCliques(cliques)
}

// canonicalCliques sorts cliques (each already ascending) into
// lexicographic order and drops adjacent duplicates.
func canonicalCliques(cliques []Clique) []Clique {
	slices.SortFunc(cliques, func(a, b Clique) int { return slices.Compare(a, b) })
	return slices.CompactFunc(cliques, func(a, b Clique) bool { return slices.Equal(a, b) })
}

// visitAll calls visit once per maximal clique. Each vertex, in
// degeneracy order, roots a pivoted search with P = its neighbors not
// yet rooted and X = its neighbors already rooted
// (Eppstein–Löffler–Strash), so each clique is reported exactly once,
// at its first vertex in that order, and each branch's candidate set
// is bounded by the degeneracy rather than the maximum degree.
func (g *Graph) visitAll(sc *bkScratch, visit func([]int)) {
	n := len(g.subflows)
	g.degeneracyOrder(sc)
	notRooted := sc.remaining
	notRooted.fill(n)
	for _, v := range sc.order {
		notRooted.unset(v)
		sc.p[1].intersect(g.rows[v], notRooted)
		sc.x[1].subtract(g.rows[v], notRooted)
		sc.r = append(sc.r[:0], v)
		g.bk(sc, 1, visit)
	}
	sc.r = sc.r[:0]
}

// bk expands the clique sc.r with candidates sc.p[depth], excluding
// sc.x[depth]. Both sets are consumed destructively; all working sets
// live in the scratch, so the recursion allocates nothing.
func (g *Graph) bk(sc *bkScratch, depth int, visit func([]int)) {
	p, x := sc.p[depth], sc.x[depth]
	if p.empty() && x.empty() {
		visit(sc.r)
		return
	}
	// Pivot: the vertex of P ∪ X with most neighbors in P minimizes
	// branching.
	pivot, best := -1, -1
	for _, set := range [2]bitset{p, x} {
		for wi, w := range set {
			base := wi << 6
			for w != 0 {
				u := base + bits.TrailingZeros64(w)
				w &= w - 1
				if cnt := intersectCount(p, g.rows[u]); cnt > best {
					best, pivot = cnt, u
				}
			}
		}
	}
	cand := sc.c[depth]
	cand.subtract(p, g.rows[pivot])
	np, nx := sc.p[depth+1], sc.x[depth+1]
	for wi, w := range cand {
		base := wi << 6
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			w &= w - 1
			np.intersect(p, g.rows[v])
			nx.intersect(x, g.rows[v])
			sc.r = append(sc.r, v)
			g.bk(sc, depth+1, visit)
			sc.r = sc.r[:len(sc.r)-1]
			// Move v from P to X.
			p.unset(v)
			x.set(v)
		}
	}
}

// degeneracyOrder fills sc.order with the vertices by repeatedly
// removing the one of minimum residual degree, smallest index first on
// ties — a deterministic degeneracy ordering. Residual degrees start
// at the full degree and drop as neighbors are removed; they are
// maintained with bitset sweeps, O(n²/64) per graph.
func (g *Graph) degeneracyOrder(sc *bkScratch) {
	n := len(g.subflows)
	remaining := sc.remaining
	remaining.fill(n)
	deg := sc.deg[:n]
	copy(deg, g.degrees)
	sc.order = sc.order[:0]
	for len(sc.order) < n {
		pick, pickDeg := -1, n+1
		for wi, w := range remaining {
			base := wi << 6
			for w != 0 {
				v := base + bits.TrailingZeros64(w)
				w &= w - 1
				if deg[v] < pickDeg {
					pick, pickDeg = v, deg[v]
				}
			}
		}
		remaining.unset(pick)
		sc.order = append(sc.order, pick)
		row := g.rows[pick]
		for wi := range remaining {
			w := row[wi] & remaining[wi]
			base := wi << 6
			for w != 0 {
				deg[base+bits.TrailingZeros64(w)]--
				w &= w - 1
			}
		}
	}
}

// GreedyColoring colours the vertices so that adjacent vertices get
// different colours, using the smallest-available-colour heuristic over
// vertices in descending degree order. It returns the colour of each
// vertex and the number of colours used. Vertices in the same colour
// class form an independent set and may transmit concurrently
// (Sec. II-D's intra-flow scheduling sets).
func (g *Graph) GreedyColoring() ([]int, int) {
	n := len(g.subflows)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if g.degrees[order[a]] != g.degrees[order[b]] {
			return g.degrees[order[a]] > g.degrees[order[b]]
		}
		return order[a] < order[b]
	})
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// used is allocated once and reset by unmarking the same
	// neighborhood after each vertex, not reallocated per vertex.
	used := make([]bool, n+1)
	var nbrs []int
	maxColor := 0
	for _, v := range order {
		nbrs = g.rows[v].appendMembers(nbrs[:0])
		for _, u := range nbrs {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
		for _, u := range nbrs {
			if colors[u] >= 0 {
				used[colors[u]] = false
			}
		}
	}
	return colors, maxColor
}
