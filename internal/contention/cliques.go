package contention

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"e2efair/internal/flow"
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
// lexicographically by member indices. It is extendCliques with every
// vertex new, the same path a Live graph takes when subflows join.
func (g *Graph) MaximalCliques() []Clique {
	return g.extendCliques(nil, 0)
}

// VisitMaximalCliques calls visit once per maximal clique. The slice
// passed to visit is reused between calls and is not sorted; callers
// that retain cliques must copy them. Unlike MaximalCliques it
// allocates nothing in steady state, and its enumeration order is
// unspecified.
func (g *Graph) VisitMaximalCliques(visit func(clique []int)) {
	if len(g.subflows) == 0 {
		return
	}
	sc := acquireScratch(len(g.subflows))
	defer releaseScratch(sc)
	g.visitFrom(sc, 0, visit)
}

// extendCliques turns cliques — the canonical maximal cliques of the
// graph induced on vertices [0, first) — into the canonical maximal
// cliques of the whole graph, after vertices S = [first, n) joined. An
// old clique C stays maximal unless some s ∈ S is adjacent to all of
// it (then C ∪ {s} is a clique); every new maximal clique contains a
// vertex of S and is enumerated once by visitFrom. Re-sorting into the
// canonical order makes the result byte-identical to enumerating the
// whole graph from scratch, which is the first = 0 case.
func (g *Graph) extendCliques(cliques []Clique, first int) []Clique {
	n := len(g.subflows)
	if first >= n {
		return cliques
	}
	sc := acquireScratch(n)
	defer releaseScratch(sc)
	kept := cliques[:0]
	for _, c := range cliques {
		if !g.dominated(sc.common, c, first) {
			kept = append(kept, c)
		}
	}
	clear(cliques[len(kept):])
	cliques = kept
	g.visitFrom(sc, first, func(r []int) {
		c := slices.Clone(r)
		slices.Sort(c)
		cliques = append(cliques, Clique(c))
	})
	return canonicalCliques(cliques)
}

// dominated reports whether some vertex ≥ first is adjacent to every
// member of c, using common as scratch.
func (g *Graph) dominated(common bitset, c Clique, first int) bool {
	common.copyFrom(g.rows[c[0]])
	for _, v := range c[1:] {
		common.intersect(common, g.rows[v])
	}
	common.clearBelow(first)
	return !common.empty()
}

// canonicalCliques sorts cliques (each already ascending) into
// lexicographic order and drops adjacent duplicates.
func canonicalCliques(cliques []Clique) []Clique {
	slices.SortFunc(cliques, func(a, b Clique) int { return slices.Compare(a, b) })
	return slices.CompactFunc(cliques, func(a, b Clique) bool { return slices.Equal(a, b) })
}

// visitFrom calls visit once per maximal clique that contains a vertex
// of S = [first, n). Each s ∈ S, in degeneracy order, roots a pivoted
// search with P = N(s) minus the S vertices already rooted and X =
// N(s) ∩ those vertices (Eppstein–Löffler–Strash), so each such clique
// is reported exactly once, at its first S vertex. With first = 0 this
// enumerates every maximal clique, each branch's candidate set bounded
// by the degeneracy rather than the maximum degree.
func (g *Graph) visitFrom(sc *bkScratch, first int, visit func([]int)) {
	n := len(g.subflows)
	g.degeneracyOrder(sc, first)
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

// degeneracyOrder fills sc.order with the vertices [first, n) by
// repeatedly removing the one of minimum residual degree, smallest
// index first on ties — a deterministic degeneracy ordering (of the
// whole graph when first = 0). Residual degrees start at the full
// degree and drop as neighbors in the range are removed; they are
// maintained with bitset sweeps, O(n²/64) per graph.
func (g *Graph) degeneracyOrder(sc *bkScratch, first int) {
	n := len(g.subflows)
	remaining := sc.remaining
	remaining.fill(n)
	remaining.clearBelow(first)
	deg := sc.deg[:n]
	copy(deg, g.degrees)
	sc.order = sc.order[:0]
	for len(sc.order) < n-first {
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

// WeightedCliqueSize returns ω_{Ω_k}: the sum of subflow weights over
// the clique's vertices.
func (g *Graph) WeightedCliqueSize(c Clique) float64 {
	var sum float64
	for _, v := range c {
		sum += g.subflows[v].Weight
	}
	return sum
}

// WeightedCliqueNumber returns ω_Ω = max_k ω_{Ω_k} over all maximal
// cliques, and the clique attaining it. A graph with no vertices
// yields (0, nil).
func (g *Graph) WeightedCliqueNumber() (float64, Clique) {
	var best float64
	var arg Clique
	for _, c := range g.MaximalCliques() {
		if w := g.WeightedCliqueSize(c); w > best {
			best = w
			arg = c
		}
	}
	return best, arg
}

// CliqueFlowCounts returns, for clique Ω_k, the per-flow subflow
// multiplicities n_{i,k} used as LP coefficients (Eq. 3).
func (g *Graph) CliqueFlowCounts(c Clique) map[flow.ID]int {
	counts := make(map[flow.ID]int)
	for _, v := range c {
		counts[g.subflows[v].ID.Flow]++
	}
	return counts
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

// ColorClasses groups vertex indices by colour.
func ColorClasses(colors []int, numColors int) [][]int {
	classes := make([][]int, numColors)
	for v, c := range colors {
		if c >= 0 && c < numColors {
			classes[c] = append(classes[c], v)
		}
	}
	return classes
}

// CliquesContaining returns the maximal cliques of the graph that
// contain vertex v, computed from v's closed neighborhood only: the
// search is rooted at R = {v}, P = N(v), so it never reads adjacency
// outside N[v]. This is the local-constructibility property the
// paper's distributed first phase relies on (citing Huang & Bensaou):
// every maximal clique through a subflow lies inside that subflow's
// closed neighborhood, whose members all have an endpoint within
// transmission range of the subflow's endpoints and are therefore
// overhearable by its transmitter (directly or via one-hop exchange).
// The result equals filtering MaximalCliques for v — see
// TestCliquesContainingIsLocal — but needs no global knowledge.
func (g *Graph) CliquesContaining(v int) []Clique {
	if v < 0 || v >= len(g.subflows) {
		return nil
	}
	sc := acquireScratch(len(g.subflows))
	var out []Clique
	sc.p[1].copyFrom(g.rows[v])
	sc.x[1].zero()
	sc.r = append(sc.r[:0], v)
	g.bk(sc, 1, func(r []int) {
		c := make(Clique, len(r))
		copy(c, r)
		out = append(out, c)
	})
	sc.r = sc.r[:0]
	releaseScratch(sc)
	for _, c := range out {
		slices.Sort(c)
	}
	return canonicalCliques(out)
}
